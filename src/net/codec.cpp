#include "net/codec.hpp"

namespace samoa::net {

namespace {

using namespace samoa::gc;

enum class Tag : std::uint8_t {
  kRcData = 1,
  kRcAck = 2,
  kFdHeartbeat = 3,
  kCsPrepare = 4,
  kCsPromise = 5,
  kCsAccept = 6,
  kCsAccepted = 7,
  kCsDecide = 8,
  kViewInstall = 9,
  kSwimPing = 10,
  kSwimAck = 11,
  kSwimPingReq = 12,
};

void put_app_message(ByteWriter& w, const AppMessage& m) {
  w.put_varint(m.id);
  w.put_string(m.data);
  w.put_bool(m.atomic);
}

AppMessage get_app_message(ByteReader& r) {
  AppMessage m;
  m.id = r.get_varint();
  m.data = r.get_string();
  m.atomic = r.get_bool();
  return m;
}

void put_value(ByteWriter& w, const ConsensusValue& v) {
  w.put_varint(v.size());
  for (const auto& m : v) put_app_message(w, m);
}

ConsensusValue get_value(ByteReader& r) {
  const auto n = r.get_varint();
  if (n > r.remaining()) {
    // Each AppMessage takes at least 3 bytes; a length beyond the buffer
    // is certainly malformed — reject before allocating.
    throw CodecError("consensus value length exceeds payload");
  }
  ConsensusValue v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(get_app_message(r));
  return v;
}

void put_swim_updates(ByteWriter& w, const std::vector<SwimUpdate>& updates) {
  w.put_varint(updates.size());
  for (const auto& u : updates) {
    w.put_u8(static_cast<std::uint8_t>(u.status));
    w.put_varint(u.site.value());
    w.put_varint(u.incarnation);
  }
}

std::vector<SwimUpdate> get_swim_updates(ByteReader& r) {
  const auto n = r.get_varint();
  if (n > r.remaining()) {
    // Each update takes at least 3 bytes; a longer count is malformed.
    throw CodecError("swim update count exceeds payload");
  }
  std::vector<SwimUpdate> updates;
  updates.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    SwimUpdate u;
    const auto status = r.get_u8();
    if (status > 2) throw CodecError("bad swim status " + std::to_string(status));
    u.status = static_cast<SwimStatus>(status);
    u.site = SiteId(static_cast<SiteId::value_type>(r.get_varint()));
    u.incarnation = r.get_varint();
    updates.push_back(u);
  }
  return updates;
}

}  // namespace

void ByteWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  bytes_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::put_string(const std::string& s) {
  put_varint(s.size());
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

std::uint8_t ByteReader::get_u8() {
  if (pos_ >= bytes_.size()) throw CodecError("truncated input: u8");
  return bytes_[pos_++];
}

std::uint64_t ByteReader::get_varint() {
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    if (shift >= 64) throw CodecError("malformed varint: too long");
    const std::uint8_t byte = get_u8();
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

std::string ByteReader::get_string() {
  const auto n = get_varint();
  if (n > remaining()) throw CodecError("truncated input: string");
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

std::vector<std::uint8_t> encode_wire(SiteId from, const gc::Wire& wire) {
  using namespace samoa::gc;
  ByteWriter w;
  w.put_varint(from.value());
  std::visit(
      [&](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, RcData>) {
          w.put_u8(static_cast<std::uint8_t>(Tag::kRcData));
          w.put_varint(msg.seq);
          put_app_message(w, msg.body);
        } else if constexpr (std::is_same_v<T, RcAck>) {
          w.put_u8(static_cast<std::uint8_t>(Tag::kRcAck));
          w.put_varint(msg.seq);
        } else if constexpr (std::is_same_v<T, FdHeartbeat>) {
          w.put_u8(static_cast<std::uint8_t>(Tag::kFdHeartbeat));
          w.put_varint(msg.epoch);
        } else if constexpr (std::is_same_v<T, CsPrepare>) {
          w.put_u8(static_cast<std::uint8_t>(Tag::kCsPrepare));
          w.put_varint(msg.instance);
          w.put_varint(msg.round);
        } else if constexpr (std::is_same_v<T, CsPromise>) {
          w.put_u8(static_cast<std::uint8_t>(Tag::kCsPromise));
          w.put_varint(msg.instance);
          w.put_varint(msg.round);
          w.put_varint(msg.accepted_round);
          w.put_bool(msg.accepted_value.has_value());
          if (msg.accepted_value) put_value(w, *msg.accepted_value);
        } else if constexpr (std::is_same_v<T, CsAccept>) {
          w.put_u8(static_cast<std::uint8_t>(Tag::kCsAccept));
          w.put_varint(msg.instance);
          w.put_varint(msg.round);
          put_value(w, msg.value);
        } else if constexpr (std::is_same_v<T, CsAccepted>) {
          w.put_u8(static_cast<std::uint8_t>(Tag::kCsAccepted));
          w.put_varint(msg.instance);
          w.put_varint(msg.round);
        } else if constexpr (std::is_same_v<T, CsDecide>) {
          w.put_u8(static_cast<std::uint8_t>(Tag::kCsDecide));
          w.put_varint(msg.instance);
          put_value(w, msg.value);
        } else if constexpr (std::is_same_v<T, ViewInstall>) {
          w.put_u8(static_cast<std::uint8_t>(Tag::kViewInstall));
          w.put_varint(msg.view_id);
          w.put_varint(msg.members.size());
          for (SiteId s : msg.members) w.put_varint(s.value());
          w.put_varint(msg.next_instance);
        } else if constexpr (std::is_same_v<T, SwimPing>) {
          w.put_u8(static_cast<std::uint8_t>(Tag::kSwimPing));
          w.put_varint(msg.seq);
          put_swim_updates(w, msg.updates);
        } else if constexpr (std::is_same_v<T, SwimAck>) {
          w.put_u8(static_cast<std::uint8_t>(Tag::kSwimAck));
          w.put_varint(msg.seq);
          w.put_varint(msg.on_behalf_of.value());
          put_swim_updates(w, msg.updates);
        } else if constexpr (std::is_same_v<T, SwimPingReq>) {
          w.put_u8(static_cast<std::uint8_t>(Tag::kSwimPingReq));
          w.put_varint(msg.seq);
          w.put_varint(msg.target.value());
          put_swim_updates(w, msg.updates);
        }
      },
      wire);
  return w.take();
}

gc::FromWire decode_wire(const std::vector<std::uint8_t>& bytes) {
  using namespace samoa::gc;
  ByteReader r(bytes);
  FromWire fw;
  fw.from = SiteId(static_cast<SiteId::value_type>(r.get_varint()));
  const auto tag = static_cast<Tag>(r.get_u8());
  switch (tag) {
    case Tag::kRcData: {
      RcData m;
      m.seq = r.get_varint();
      m.body = get_app_message(r);
      fw.wire = m;
      break;
    }
    case Tag::kRcAck: {
      RcAck m;
      m.seq = r.get_varint();
      fw.wire = m;
      break;
    }
    case Tag::kFdHeartbeat: {
      FdHeartbeat m;
      m.epoch = r.get_varint();
      fw.wire = m;
      break;
    }
    case Tag::kCsPrepare: {
      CsPrepare m;
      m.instance = r.get_varint();
      m.round = r.get_varint();
      fw.wire = m;
      break;
    }
    case Tag::kCsPromise: {
      CsPromise m;
      m.instance = r.get_varint();
      m.round = r.get_varint();
      m.accepted_round = r.get_varint();
      if (r.get_bool()) m.accepted_value = get_value(r);
      fw.wire = m;
      break;
    }
    case Tag::kCsAccept: {
      CsAccept m;
      m.instance = r.get_varint();
      m.round = r.get_varint();
      m.value = get_value(r);
      fw.wire = m;
      break;
    }
    case Tag::kCsAccepted: {
      CsAccepted m;
      m.instance = r.get_varint();
      m.round = r.get_varint();
      fw.wire = m;
      break;
    }
    case Tag::kCsDecide: {
      CsDecide m;
      m.instance = r.get_varint();
      m.value = get_value(r);
      fw.wire = m;
      break;
    }
    case Tag::kViewInstall: {
      ViewInstall m;
      m.view_id = r.get_varint();
      const auto n = r.get_varint();
      if (n > r.remaining() + 1) throw CodecError("view member count exceeds payload");
      for (std::uint64_t i = 0; i < n; ++i) {
        m.members.push_back(SiteId(static_cast<SiteId::value_type>(r.get_varint())));
      }
      m.next_instance = r.get_varint();
      fw.wire = m;
      break;
    }
    case Tag::kSwimPing: {
      SwimPing m;
      m.seq = r.get_varint();
      m.updates = get_swim_updates(r);
      fw.wire = m;
      break;
    }
    case Tag::kSwimAck: {
      SwimAck m;
      m.seq = r.get_varint();
      m.on_behalf_of = SiteId(static_cast<SiteId::value_type>(r.get_varint()));
      m.updates = get_swim_updates(r);
      fw.wire = m;
      break;
    }
    case Tag::kSwimPingReq: {
      SwimPingReq m;
      m.seq = r.get_varint();
      m.target = SiteId(static_cast<SiteId::value_type>(r.get_varint()));
      m.updates = get_swim_updates(r);
      fw.wire = m;
      break;
    }
    default:
      throw CodecError("unknown wire tag " + std::to_string(static_cast<int>(tag)));
  }
  if (!r.exhausted()) throw CodecError("trailing bytes after wire message");
  return fw;
}

}  // namespace samoa::net
