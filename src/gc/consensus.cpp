#include "gc/consensus.hpp"

#include <algorithm>

#include "gc/wire.hpp"

namespace samoa::gc {

Consensus::Consensus(const GcOptions& opts, const GcEvents& events, SiteId self,
                     View initial_view)
    : GcMicroprotocol("consensus", opts),
      events_(&events),
      self_(self),
      view_(std::move(initial_view)) {
  propose_ = &register_handler("propose", {&events.transport_send},
                               [this](Context& ctx, const Message& m) {
    Outbox out;
    {
      auto lock = guard();
      const auto& req = m.as<CsPropose>();
      if (decision(req.instance) != nullptr) return;
      Instance& inst = instances_[req.instance];
      if (inst.have_proposal) return;
      inst.have_proposal = true;
      inst.proposal = req.value;
      inst.last_activity = options().now();
      try_coordinate(out, req.instance);
    }
    out.flush(ctx);
  });

  on_wire_ = &register_handler("on_wire", {&events.transport_send, &events.cs_decided},
                               [this](Context& ctx, const Message& m) {
    Outbox out;
    {
      auto lock = guard();
      const auto& fw = m.as<FromWire>();
      std::visit(
          [&](const auto& msg) {
            using T = std::decay_t<decltype(msg)>;
            if constexpr (std::is_same_v<T, CsPrepare>) {
              handle_prepare(out, fw.from, msg);
            } else if constexpr (std::is_same_v<T, CsPromise>) {
              handle_promise(out, fw.from, msg);
            } else if constexpr (std::is_same_v<T, CsAccept>) {
              handle_accept(out, fw.from, msg);
            } else if constexpr (std::is_same_v<T, CsAccepted>) {
              handle_accepted(out, fw.from, msg);
            } else if constexpr (std::is_same_v<T, CsDecide>) {
              handle_decide(out, msg);
            }
          },
          fw.wire);
    }
    out.flush(ctx);
  });

  on_suspect_ = &register_handler("on_suspect", {&events.transport_send},
                                  [this](Context& ctx, const Message& m) {
    Outbox out;
    {
      auto lock = guard();
      const SiteId suspected = m.as<SiteId>();
      for (auto& [i, inst] : instances_) {
        if (!inst.have_proposal || view_.size() == 0) continue;
        const SiteId coord = view_.member_at(static_cast<std::size_t>(i + inst.attempt));
        if (coord == suspected) {
          ++inst.attempt;
          try_coordinate(out, i);
        }
      }
    }
    out.flush(ctx);
  });

  retry_ = &register_handler("retry", {&events.transport_send},
                             [this](Context& ctx, const Message&) {
    Outbox out;
    {
      auto lock = guard();
      const auto now = options().now();
      for (auto& [i, inst] : instances_) {
        if (!inst.have_proposal) continue;
        if (now - inst.last_activity < options().cs_retry_timeout) continue;
        // Stuck: either our own round's messages were lost, or a remote
        // coordinator stalled. Advance the attempt and retry.
        ++inst.attempt;
        inst.last_activity = now;
        try_coordinate(out, i);
      }
      // Decision pull: the loop above only heals instances we hold a
      // proposal for. A site that missed a DECIDE *and* has nothing to
      // propose into the slot (e.g. a rejoined member whose pending
      // filter withholds foreign payloads) would stall forever, so probe
      // the frontier instance whenever a later decision proves the group
      // has moved past it. See set_frontier_source in the header.
      if (frontier_source_) {
        const std::uint64_t want = frontier_source_();
        if (max_decided_ > want && decision(want) == nullptr) {
          decision_pulls_.add();
          broadcast(out, Wire{CsPrepare{want, 0}});
        }
      }
    }
    out.flush(ctx);
  });

  view_change_ = &register_handler("viewChange", [this](Context&, const Message& m) {
    auto lock = guard();
    view_ = m.as<View>();
  });
}

const ConsensusValue* Consensus::decision(std::uint64_t i) const {
  const auto it = decided_.find(i);
  return it == decided_.end() ? nullptr : &it->second;
}

void Consensus::broadcast(Outbox& out, const Wire& wire) {
  for (SiteId site : view_.members()) {
    out.trigger(events_->transport_send, Message::of(TransportSend{site, wire}));
  }
}

void Consensus::to(Outbox& out, SiteId site, const Wire& wire) {
  out.trigger(events_->transport_send, Message::of(TransportSend{site, wire}));
}

void Consensus::try_coordinate(Outbox& out, std::uint64_t i) {
  Instance& inst = instances_[i];
  if (!inst.have_proposal || view_.size() == 0) return;
  const SiteId coord = view_.member_at(static_cast<std::size_t>(i + inst.attempt));
  if (coord != self_) return;
  inst.my_round = (inst.attempt + 1) * kRoundStride + self_.value() + 1;
  inst.phase2 = false;
  inst.promises.clear();
  inst.accepted_from.clear();
  inst.last_activity = options().now();
  rounds_started_.add();
  broadcast(out, Wire{CsPrepare{i, inst.my_round}});
}

void Consensus::handle_prepare(Outbox& out, SiteId from, const CsPrepare& p) {
  if (const ConsensusValue* d = decision(p.instance)) {
    // Help a lagging coordinator (or answer a round-0 decision pull):
    // re-send the decision instead of playing another round.
    to(out, from, Wire{CsDecide{p.instance, *d}});
    return;
  }
  Instance& inst = instances_[p.instance];
  // Stale rounds — including round-0 pull probes — must not count as
  // activity, or periodic probes would forever suppress the retry timer.
  if (p.round <= inst.promised) return;
  inst.last_activity = options().now();
  inst.promised = p.round;
  to(out, from,
     Wire{CsPromise{p.instance, p.round, inst.accepted_round, inst.accepted_value}});
}

void Consensus::handle_promise(Outbox& out, SiteId from, const CsPromise& p) {
  const auto it = instances_.find(p.instance);
  if (it == instances_.end()) return;  // decided, or never coordinated here
  Instance& inst = it->second;
  if (inst.phase2 || p.round != inst.my_round) return;
  inst.promises.emplace(from, p);
  if (inst.promises.size() < view_.majority()) return;
  // Phase 2: adopt the value of the highest accepted round, if any.
  const CsPromise* best = nullptr;
  for (const auto& [site, promise] : inst.promises) {
    (void)site;
    if (promise.accepted_value &&
        (best == nullptr || promise.accepted_round > best->accepted_round)) {
      best = &promise;
    }
  }
  inst.chosen = best != nullptr ? *best->accepted_value : inst.proposal;
  inst.phase2 = true;
  inst.last_activity = options().now();
  broadcast(out, Wire{CsAccept{p.instance, inst.my_round, inst.chosen}});
}

void Consensus::handle_accept(Outbox& out, SiteId from, const CsAccept& a) {
  if (const ConsensusValue* d = decision(a.instance)) {
    to(out, from, Wire{CsDecide{a.instance, *d}});
    return;
  }
  Instance& inst = instances_[a.instance];
  inst.last_activity = options().now();
  if (a.round < inst.promised) return;
  inst.promised = a.round;
  inst.accepted_round = a.round;
  inst.accepted_value = a.value;
  to(out, from, Wire{CsAccepted{a.instance, a.round}});
}

void Consensus::handle_accepted(Outbox& out, SiteId from, const CsAccepted& a) {
  const auto it = instances_.find(a.instance);
  if (it == instances_.end()) return;  // decided, or never coordinated here
  Instance& inst = it->second;
  if (!inst.phase2 || a.round != inst.my_round) return;
  inst.accepted_from.insert(from);
  if (inst.accepted_from.size() < view_.majority()) return;
  broadcast(out, Wire{CsDecide{a.instance, inst.chosen}});
  // Our own CsDecide arrives through loopback and runs handle_decide.
}

void Consensus::handle_decide(Outbox& out, const CsDecide& d) {
  if (!decided_.emplace(d.instance, d.value).second) return;
  // Every later message for a decided instance is answered from the
  // decision alone; the instance's proposer and acceptor state is dead
  // weight from here on.
  instances_.erase(d.instance);
  max_decided_ = std::max(max_decided_, d.instance);
  decided_count_.add();
  out.trigger(events_->cs_decided, Message::of(CsDecided{d.instance, d.value}));
}

}  // namespace samoa::gc
