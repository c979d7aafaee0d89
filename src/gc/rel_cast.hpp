// RelCast — reliable broadcast (paper Section 3).
//
//   handler bcast (m): for all site in view: trigger SendOut (m, site);
//   handler recv (m): if (new message m) { bcast m;
//                                          asyncTriggerAll DeliverOut m; }
//   handler viewChange (new_view): view = new_view;
//
// The recv-side rebroadcast guarantees all-or-nothing delivery within the
// view even if the original sender crashes mid-broadcast.
//
// Deviation: consensus-channel messages (ABcast payloads,
// `is_consensus_channel`) are passed up without the rebroadcast and without
// a dedup mark. Consensus already gives them all-or-nothing delivery: a
// message is adelivered only as part of a decided batch, and ACCEPT and
// DECIDE carry the whole batch (the decision pull heals a lost DECIDE), so
// every survivor learns it from consensus. A live origin's RelComm
// retransmits the message until every member of its view holds it, and the
// origin proposes it itself. The relay would cost n broadcasts of n sends
// per message for nothing. ABcast dedups by id, so a repeated copy is
// harmless. The plain and causal channels keep the relay: no consensus
// carries their payloads.
#pragma once

#include <unordered_set>

#include "gc/events.hpp"
#include "gc/gc_mp.hpp"
#include "gc/view.hpp"
#include "util/stats.hpp"

namespace samoa::gc {

class RelCast : public GcMicroprotocol {
 public:
  RelCast(const GcOptions& opts, const GcEvents& events, SiteId self, View initial_view);

  const Handler* bcast_handler() const { return bcast_; }
  const Handler* recv_handler() const { return recv_; }
  const Handler* view_change_handler() const { return view_change_; }

  std::uint64_t broadcasts() const { return broadcasts_.value(); }
  View view_snapshot();

 private:
  SiteId self_;
  View view_;
  std::unordered_set<MsgId> seen_;  // relayed channels only
  Counter broadcasts_;
  mutable std::mutex snap_mu_;

  const Handler* bcast_ = nullptr;
  const Handler* recv_ = nullptr;
  const Handler* view_change_ = nullptr;
};

}  // namespace samoa::gc
