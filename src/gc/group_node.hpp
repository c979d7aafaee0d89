// GroupNode — one site's complete group-communication stack.
//
// Owns the Stack (Transport, RelComm, RelCast, the failure detector that
// GcOptions::detector_impl selects, Consensus, ABcast, CausalCast,
// Membership, a delivery sink), its Runtime with the chosen
// concurrency-control policy, and a TimerService; registers with the
// SimNetwork and turns every network packet and timer tick into an
// `isolated` computation with the appropriate declaration.
//
// Design note: computations never block on remote events — all sends are
// fire-and-forget and every response arrives as a *new* external event, so
// version gates are strictly per-site and the paper's deadlock-freedom
// argument carries over to the distributed setting unchanged.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "gc/abcast.hpp"
#include "gc/causal_cast.hpp"
#include "gc/consensus.hpp"
#include "gc/events.hpp"
#include "gc/failure_detector.hpp"
#include "gc/gc_options.hpp"
#include "gc/membership.hpp"
#include "gc/rel_cast.hpp"
#include "gc/rel_comm.hpp"
#include "gc/swim.hpp"
#include "gc/transport.hpp"
#include "net/sim_network.hpp"
#include "net/timer_service.hpp"
#include "verify/vs_checker.hpp"

namespace samoa::gc {

/// Terminal microprotocol recording what the "application module" saw.
class DeliverSink : public GcMicroprotocol {
 public:
  DeliverSink(const GcOptions& opts, const GcEvents& events);

  const Handler* on_rdeliver_handler() const { return on_rdeliver_; }
  const Handler* on_adeliver_handler() const { return on_adeliver_; }
  const Handler* on_cdeliver_handler() const { return on_cdeliver_; }

  /// Reliable-broadcast deliveries (unordered), membership ops filtered.
  std::vector<AppMessage> rdelivered();
  /// Atomic-broadcast deliveries, in total order, membership ops filtered.
  std::vector<AppMessage> adelivered();
  /// Causal-broadcast deliveries, in causal order.
  std::vector<std::string> cdelivered();

  /// Provider of the current view id stamped on delivery records (wired
  /// by GroupNode to the membership view; unset stamps view 0).
  void set_view_source(std::function<std::uint64_t()> source) {
    view_source_ = std::move(source);
  }
  /// Atomic deliveries annotated with view + ordinal, for the
  /// virtual-synchrony checker.
  std::vector<verify::DeliveryRecord> delivery_records();

 private:
  mutable std::mutex mu_;
  std::vector<AppMessage> rdelivered_;
  std::vector<std::string> cdelivered_;
  // Atomic deliveries, kept once: adelivered() is built from these.
  std::vector<verify::DeliveryRecord> records_;
  std::function<std::uint64_t()> view_source_;
  const Handler* on_rdeliver_ = nullptr;
  const Handler* on_adeliver_ = nullptr;
  const Handler* on_cdeliver_ = nullptr;
};

class GroupNode {
 public:
  /// Registers a site with `net`; the node's id is allocated there.
  GroupNode(net::SimNetwork& net, GcOptions opts);
  ~GroupNode();

  GroupNode(const GroupNode&) = delete;
  GroupNode& operator=(const GroupNode&) = delete;

  SiteId id() const { return self_; }

  /// Install the initial view and arm the periodic timers. Call exactly
  /// once, after every node of the experiment has been constructed.
  void start(View initial_view);

  /// Stop timers and detach from the network (simulated crash).
  void crash();

  /// Restart a crashed node as a fresh incarnation: the previous
  /// incarnation's trace is archived, every microprotocol is rebuilt from
  /// scratch (volatile state wiped — a crash loses everything), the
  /// MsgId epoch is bumped, and the site re-attaches to the network with
  /// timers re-armed. The node is NOT a group member afterwards: a current
  /// member must `request_join(id())` so the membership/state-transfer
  /// path installs a view (with the ordering catch-up floor) on it.
  void restart();

  /// One finished lifetime of this node (archived by restart()).
  struct IncarnationArchive {
    std::vector<verify::DeliveryRecord> records;
    std::vector<AppMessage> adelivered;
    std::vector<View> views;
    std::uint64_t retransmissions = 0;
    std::uint64_t view_change_drops = 0;
    std::uint64_t joins_completed = 0;
  };
  std::vector<IncarnationArchive> archives() const;

  /// Incarnation number of the current lifetime (0 before any restart).
  std::uint64_t incarnation() const { return opts_.id_epoch; }

  /// Joins completed through the ViewInstall state-transfer path, summed
  /// over all incarnations — for a node started in the initial view this
  /// counts exactly its completed re-joins after crashes.
  std::uint64_t rejoins_completed() const;

  /// Retransmissions summed over all incarnations.
  std::uint64_t total_retransmissions() const;

  /// Every lifetime of this node as checker input: all archived
  /// incarnations (ended by a crash) plus the current one.
  std::vector<verify::IncarnationTrace> vs_traces() const;

  // --- Application API (each call is one external event) ---
  ComputationHandle rbcast(std::string data);
  ComputationHandle abcast(std::string data);
  ComputationHandle ccast(std::string data);  // causal-order broadcast
  ComputationHandle request_join(SiteId newcomer);
  ComputationHandle request_leave(SiteId member);

  // --- Introspection ---
  Runtime& runtime() { return *runtime_; }
  DeliverSink& sink() { return *sink_; }
  Membership& membership() { return *membership_; }
  RelComm& rel_comm() { return *relcomm_; }
  RelCast& rel_cast() { return *relcast_; }
  ABcast& ab() { return *abcast_; }
  CausalCast& causal() { return *causal_; }
  Consensus& consensus() { return *consensus_; }
  /// The heartbeat / SWIM detector; each throws ConfigError unless
  /// GcOptions::detector_impl selected it (only that one is built).
  FailureDetector& fd();
  SwimDetector& swim();
  /// The failure detector selected by GcOptions::detector_impl, behind
  /// the common seam (harnesses compare detectors through this).
  Detector& detector() { return *detector_; }
  Transport& transport() { return *transport_; }
  const GcEvents& events() const { return events_; }
  const GcOptions& options() const { return opts_; }

  /// Stop the periodic timers (retransmit / heartbeat / fd / consensus
  /// retry). Needed before drain(): with timers armed, new computations
  /// keep arriving and the runtime never becomes idle.
  void stop_timers() { timers_.cancel_all(); }

  /// Wait until this node has no in-flight computations. Call
  /// stop_timers() first if the node should actually become idle.
  void drain() { runtime_->drain(); }

  /// Periodic tick computations skipped because the previous tick of the
  /// same class had not completed (see spawn_tick).
  std::uint64_t ticks_coalesced() const {
    return ticks_coalesced_.load(std::memory_order_relaxed);
  }

 private:
  enum class EventClass {
    kRcData,
    kRcAck,
    kFdHeartbeat,
    kSwimWire,
    kCsWire,
    kViewInstall,
    kRetransmitTick,
    kHeartbeatTick,
    kFdCheckTick,
    kSwimTick,
    kCsRetryTick,
    kApiRbcast,
    kApiAbcast,
    kApiCcast,
    kApiJoinLeave,
  };
  static constexpr std::size_t kEventClasses =
      static_cast<std::size_t>(EventClass::kApiJoinLeave) + 1;

  /// The declaration of one event class over the current stack.
  Isolation make_spec(EventClass klass) const;
  /// Fill specs_ for the current stack (its microprotocol ids are new
  /// after every restart). Left empty under VCAroute, which spawn rejects.
  void build_specs();
  ComputationHandle spawn(EventClass klass, const EventType& ev, Message msg);
  /// Spawn a periodic tick computation unless the previous tick of the
  /// same class is still in flight (tick coalescing). A stalled stack —
  /// e.g. a view change blocking head-of-line — would otherwise accumulate
  /// one blocked computation per interval, unboundedly growing the thread
  /// pool; a tick re-run on the next interval observes the same state, so
  /// skipping loses nothing.
  void spawn_tick(std::size_t slot, EventClass klass, const EventType& ev);
  void on_packet(const net::Packet& packet);
  void build_stack();
  void bind_all();
  void arm_timers();
  void archive_incarnation();

  net::SimNetwork& net_;
  GcOptions opts_;
  GcEvents events_;
  SiteId self_;

  std::unique_ptr<Stack> stack_;
  Transport* transport_ = nullptr;
  RelComm* relcomm_ = nullptr;
  RelCast* relcast_ = nullptr;
  // Exactly one of fd_ / swim_ is built; the other stays null.
  FailureDetector* fd_ = nullptr;
  SwimDetector* swim_ = nullptr;
  Detector* detector_ = nullptr;
  Consensus* consensus_ = nullptr;
  ABcast* abcast_ = nullptr;
  CausalCast* causal_ = nullptr;
  Membership* membership_ = nullptr;
  DeliverSink* sink_ = nullptr;
  /// One declaration per EventClass, built once per stack; every spawn
  /// admits from these without copying them.
  std::vector<Isolation> specs_;

  std::unique_ptr<Runtime> runtime_;
  // Tick-coalescing state is used by timer callbacks, so it must be
  // declared before timers_: the TimerService destructor waits out a
  // running callback, and anything declared after it would be destroyed
  // while that callback can still be running.
  std::mutex tick_mu_;
  std::array<ComputationHandle, 5> last_tick_;  // one slot per tick class
  std::atomic<std::uint64_t> ticks_coalesced_{0};
  net::TimerService timers_;
  std::atomic<bool> started_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<std::uint64_t> rb_seq_{0};
  std::vector<IncarnationArchive> archives_;
  mutable std::mutex archive_mu_;
};

}  // namespace samoa::gc
