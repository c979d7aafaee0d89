// Event vocabulary of one group-communication node.
//
// Each GroupNode owns one instance of GcEvents: the internal and external
// event types wiring its microprotocols together, mirroring the paper's
// Section 3 code (SendOut, FromRComm, Bcast, DeliverOut, ViewChange, ...).
#pragma once

#include "core/event.hpp"
#include "gc/wire.hpp"

namespace samoa::gc {

/// Request to send `m` to `target` through reliable point-to-point
/// communication (the argument of the paper's SendOut event).
struct SendReq {
  AppMessage m;
  SiteId target;
};

/// Request to push a wire message onto the network.
struct TransportSend {
  SiteId to;
  Wire wire;
};

/// Internal consensus kick: "agree on `value` for slot `instance`".
struct CsPropose {
  std::uint64_t instance = 0;
  ConsensusValue value;
};

/// Consensus outcome handed to the atomic broadcast layer.
struct CsDecided {
  std::uint64_t instance = 0;
  ConsensusValue value;
};

/// A membership operation (the paper's joinleave handler arguments).
struct JoinLeave {
  char op = '+';  // '+' join, '-' leave
  SiteId site;
};

/// Total-order delivery handed to Membership and the application sink.
/// `next_ordinal` is the ordering position right after this message's
/// (consensus slot + 1): when the message is a join op, that is exactly
/// the catch-up floor Membership must ship to the joining site — and
/// unlike the deliverer's own ordering cursor it is identical at every
/// member, whatever else each one has buffered.
struct ADelivery {
  AppMessage m;
  std::uint64_t next_ordinal = 0;
};

struct GcEvents {
  // External (network / timers / API):
  EventType rc_data{"net.RcData"};
  EventType rc_ack{"net.RcAck"};
  EventType fd_heartbeat{"net.FdHeartbeat"};
  EventType swim_wire{"net.Swim"};
  EventType cs_wire{"net.Consensus"};
  EventType view_install{"net.ViewInstall"};
  EventType retransmit_tick{"tick.Retransmit"};
  EventType heartbeat_tick{"tick.Heartbeat"};
  EventType fd_check_tick{"tick.FdCheck"};
  EventType swim_tick{"tick.SwimProbe"};
  EventType cs_retry_tick{"tick.CsRetry"};
  EventType api_abcast{"api.ABcast"};  // -> ABcast.submit (also Membership.joinleave)
  EventType api_rbcast{"api.Bcast"};
  EventType api_ccast{"api.CCast"};
  EventType api_joinleave{"api.JoinLeave"};

  // Internal (between microprotocols):
  EventType send_out{"SendOut"};          // -> RelComm.send
  EventType from_rcomm{"FromRComm"};      // -> RelCast.recv (triggerAll)
  EventType bcast{"Bcast"};               // -> RelCast.bcast
  EventType deliver_out{"DeliverOut"};    // -> ABcast.on_rdeliver + app sink
  EventType adeliver{"ADeliver"};         // -> Membership.deliverView + app sink
  EventType causal_deliver{"CDeliver"};   // -> app sink (causal order)
  EventType view_change{"ViewChange"};    // -> every view-holding microprotocol
  EventType suspect{"Suspect"};           // -> Consensus.on_suspect
  EventType cs_propose{"CsPropose"};      // -> Consensus.propose
  EventType cs_decided{"CsDecided"};      // -> ABcast.on_decide
  EventType transport_send{"Transport"};  // -> Transport.send
  // Rejoin catch-up floor extracted from a received ViewInstall: ABcast
  // fast-forwards its delivery cursor so the rejoined site continues the
  // total order instead of replaying or stalling.
  EventType abcast_catchup{"ABcastCatchup"};  // -> ABcast.on_catchup
};

}  // namespace samoa::gc
