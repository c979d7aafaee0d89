// Unit tests for the group-communication building blocks that don't need a
// network: views, message ids, the membership op codec, wire kinds, and
// RelComm's receive dedup.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "gc/membership.hpp"
#include "gc/rel_comm.hpp"
#include "gc/view.hpp"
#include "gc/wire.hpp"
#include "util/rng.hpp"

namespace samoa::gc {
namespace {

TEST(View, MembersSortedAndDeduped) {
  View v(1, {SiteId{3}, SiteId{1}, SiteId{3}, SiteId{2}});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.members()[0], SiteId{1});
  EXPECT_EQ(v.members()[2], SiteId{3});
}

TEST(View, ContainsAndMajority) {
  View v(1, {SiteId{0}, SiteId{1}, SiteId{2}});
  EXPECT_TRUE(v.contains(SiteId{1}));
  EXPECT_FALSE(v.contains(SiteId{9}));
  EXPECT_EQ(v.majority(), 2u);
  View v5(1, {SiteId{0}, SiteId{1}, SiteId{2}, SiteId{3}, SiteId{4}});
  EXPECT_EQ(v5.majority(), 3u);
}

TEST(View, WithAndWithoutBumpId) {
  View v(1, {SiteId{0}, SiteId{1}});
  View plus = v.with(SiteId{2});
  EXPECT_EQ(plus.id(), 2u);
  EXPECT_TRUE(plus.contains(SiteId{2}));
  View minus = plus.without(SiteId{0});
  EXPECT_EQ(minus.id(), 3u);
  EXPECT_FALSE(minus.contains(SiteId{0}));
  EXPECT_EQ(minus.size(), 2u);
}

TEST(View, MemberAtWrapsAround) {
  View v(1, {SiteId{10}, SiteId{20}, SiteId{30}});
  EXPECT_EQ(v.member_at(0), SiteId{10});
  EXPECT_EQ(v.member_at(3), SiteId{10});
  EXPECT_EQ(v.member_at(4), SiteId{20});
}

TEST(View, DescribeIsHumanReadable) {
  View v(7, {SiteId{0}, SiteId{2}});
  EXPECT_EQ(v.describe(), "view#7{0,2}");
}

TEST(MsgId, OriginRoundTrips) {
  const MsgId id = make_msg_id(SiteId{5}, 1234);
  EXPECT_EQ(msg_origin(id), SiteId{5});
  EXPECT_EQ(id & 0xFFFFFFFFull, 1234u);
}

TEST(MsgId, DistinctAcrossOrigins) {
  EXPECT_NE(make_msg_id(SiteId{1}, 7), make_msg_id(SiteId{2}, 7));
  EXPECT_NE(make_msg_id(SiteId{1}, 7), make_msg_id(SiteId{1}, 8));
}

TEST(MembershipCodec, RoundTrip) {
  const auto joined = Membership::encode_op('+', SiteId{42});
  char op;
  SiteId site;
  ASSERT_TRUE(Membership::decode_op(joined, op, site));
  EXPECT_EQ(op, '+');
  EXPECT_EQ(site, SiteId{42});

  const auto left = Membership::encode_op('-', SiteId{3});
  ASSERT_TRUE(Membership::decode_op(left, op, site));
  EXPECT_EQ(op, '-');
  EXPECT_EQ(site, SiteId{3});
}

TEST(MembershipCodec, RejectsOrdinaryPayloads) {
  char op;
  SiteId site;
  EXPECT_FALSE(Membership::decode_op("hello", op, site));
  EXPECT_FALSE(Membership::decode_op("!view", op, site));
  EXPECT_FALSE(Membership::decode_op("!viewX3", op, site));
  EXPECT_FALSE(Membership::decode_op("!view+", op, site));
  EXPECT_FALSE(Membership::decode_op("", op, site));
}

TEST(WireKind, NamesAllAlternatives) {
  EXPECT_STREQ(wire_kind(Wire{RcData{}}), "RcData");
  EXPECT_STREQ(wire_kind(Wire{RcAck{}}), "RcAck");
  EXPECT_STREQ(wire_kind(Wire{FdHeartbeat{}}), "FdHeartbeat");
  EXPECT_STREQ(wire_kind(Wire{CsPrepare{}}), "CsPrepare");
  EXPECT_STREQ(wire_kind(Wire{CsPromise{}}), "CsPromise");
  EXPECT_STREQ(wire_kind(Wire{CsAccept{}}), "CsAccept");
  EXPECT_STREQ(wire_kind(Wire{CsAccepted{}}), "CsAccepted");
  EXPECT_STREQ(wire_kind(Wire{CsDecide{}}), "CsDecide");
  EXPECT_STREQ(wire_kind(Wire{ViewInstall{}}), "ViewInstall");
}

/// A stream over [0, n) as a lossy, reordering, duplicating link delivers
/// it: each seq may be dropped (a gap), repeated, and displaced by up to
/// `window` positions.
std::vector<std::uint64_t> scrambled_stream(Rng& rng, std::uint64_t n, std::uint64_t window) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t seq = 0; seq < n; ++seq) {
    if (rng.chance(0.05)) continue;
    out.push_back(seq);
    while (rng.chance(0.2)) out.push_back(seq);
  }
  for (std::size_t i = 0; i < out.size() && window > 0; ++i) {
    const std::size_t j = std::min(out.size() - 1, i + rng.next_below(window + 1));
    std::swap(out[i], out[j]);
  }
  return out;
}

TEST(DedupFloor, MatchesSetModelOverScrambledStreams) {
  for (std::uint64_t trial = 0; trial < 300; ++trial) {
    Rng rng(trial);
    const std::uint64_t n = 1 + rng.next_below(300);
    const std::uint64_t window = rng.next_below(40);
    DedupFloor floor;
    std::set<std::uint64_t> model;
    for (std::uint64_t seq : scrambled_stream(rng, n, window)) {
      ASSERT_EQ(floor.insert(seq), model.insert(seq).second)
          << "trial " << trial << " seq " << seq;
    }
    for (std::uint64_t seq = 0; seq < n + 3; ++seq) {
      ASSERT_EQ(floor.contains(seq), model.contains(seq)) << "trial " << trial << " seq " << seq;
    }
    // Everything in the run is in the model; the rest is held outside it.
    EXPECT_EQ(floor.top() - floor.floor() + floor.outside(), model.size()) << "trial " << trial;
  }
}

TEST(DedupFloor, InOrderStreamKeepsNothingOutsideTheRun) {
  DedupFloor floor;
  EXPECT_FALSE(floor.contains(0));
  for (std::uint64_t seq = 1; seq <= 1000; ++seq) ASSERT_TRUE(floor.insert(seq));
  EXPECT_EQ(floor.outside(), 0u);
  EXPECT_EQ(floor.floor(), 1u);
  EXPECT_EQ(floor.top(), 1001u);
  EXPECT_FALSE(floor.contains(0));  // never seen, though below the run
  EXPECT_TRUE(floor.insert(0));
  EXPECT_FALSE(floor.insert(0));
  EXPECT_EQ(floor.floor(), 0u);
}

TEST(DedupFloor, MatchesSetModelAtTheTopOfTheRange) {
  // Seqs come off the wire, so any value can arrive, including the last
  // one, which the run's exclusive end cannot cover: first, beside a run
  // starting at 0, and as the next seq of a run that reaches it.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::vector<std::vector<std::uint64_t>> streams = {
      {kMax, kMax - 1, kMax, 0, kMax - 2},
      {0, 1, kMax, 2, kMax, kMax - 1},
      {kMax - 2, kMax, kMax - 1, kMax, kMax - 3, 0, kMax - 1},
  };
  for (const auto& stream : streams) {
    DedupFloor floor;
    std::set<std::uint64_t> model;
    for (std::uint64_t seq : stream) {
      ASSERT_EQ(floor.insert(seq), model.insert(seq).second) << "seq " << seq;
    }
    for (std::uint64_t back = 0; back < 6; ++back) {
      EXPECT_EQ(floor.contains(kMax - back), model.contains(kMax - back)) << "seq max-" << back;
      EXPECT_EQ(floor.contains(back), model.contains(back)) << "seq " << back;
    }
  }
}

TEST(DedupFloor, ReorderedStreamDrainsTheOutsideSet) {
  DedupFloor floor;
  for (std::uint64_t seq : {5, 7, 6, 2, 4, 3, 9, 8, 1}) ASSERT_TRUE(floor.insert(seq));
  EXPECT_EQ(floor.outside(), 0u);
  EXPECT_EQ(floor.floor(), 1u);
  EXPECT_EQ(floor.top(), 10u);
  for (std::uint64_t seq = 1; seq < 10; ++seq) EXPECT_FALSE(floor.insert(seq));
}

}  // namespace
}  // namespace samoa::gc
