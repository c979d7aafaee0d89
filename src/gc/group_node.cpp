#include "core/context.hpp"
#include "gc/group_node.hpp"

#include <iterator>
#include <map>
#include <unordered_map>

#include "core/errors.hpp"
#include "core/infer.hpp"

namespace samoa::gc {

DeliverSink::DeliverSink(const GcOptions& opts, const GcEvents&)
    : GcMicroprotocol("app", opts) {
  on_rdeliver_ = &register_handler("on_rdeliver", [this](Context&, const Message& m) {
    auto lock = guard();
    const auto& msg = m.as<AppMessage>();
    if (msg.atomic) return;  // atomic payloads are delivered via ADeliver
    // Causal headers carry the 0x01 prefix byte and are not application
    // messages (CausalCast delivers their payloads through CDeliver).
    if (!msg.data.empty() && msg.data[0] == '\x01') return;
    std::unique_lock snap(mu_);
    rdelivered_.push_back(msg);
  });
  on_cdeliver_ = &register_handler("on_cdeliver", [this](Context&, const Message& m) {
    auto lock = guard();
    std::unique_lock snap(mu_);
    cdelivered_.push_back(m.as<std::string>());
  });
  on_adeliver_ = &register_handler("on_adeliver", [this](Context&, const Message& m) {
    auto lock = guard();
    const auto& del = m.as<ADelivery>();
    char op;
    SiteId site;
    if (Membership::decode_op(del.m.data, op, site)) return;  // membership-internal
    const std::uint64_t view = view_source_ ? view_source_() : 0;
    std::unique_lock snap(mu_);
    records_.push_back(verify::DeliveryRecord{del.m.id, view, del.next_ordinal - 1, del.m.data});
  });
}

std::vector<AppMessage> DeliverSink::rdelivered() {
  std::unique_lock snap(mu_);
  return rdelivered_;
}

std::vector<AppMessage> DeliverSink::adelivered() {
  std::unique_lock snap(mu_);
  std::vector<AppMessage> out;
  out.reserve(records_.size());
  for (const auto& r : records_) out.push_back(AppMessage{r.id, r.data, /*atomic=*/true});
  return out;
}

std::vector<std::string> DeliverSink::cdelivered() {
  std::unique_lock snap(mu_);
  return cdelivered_;
}

std::vector<verify::DeliveryRecord> DeliverSink::delivery_records() {
  std::unique_lock snap(mu_);
  return records_;
}

GroupNode::GroupNode(net::SimNetwork& net, GcOptions opts)
    : net_(net), opts_(std::move(opts)), timers_(opts_.clock) {
  self_ = net_.add_site([this](const net::Packet& packet) { on_packet(packet); });
  build_stack();
}

void GroupNode::build_stack() {
  // A Stack seals its bindings on first spawn, so a restart cannot reuse
  // it: each incarnation composes a brand-new stack — which is also
  // exactly the crash semantics we want, since every microprotocol comes
  // back with empty volatile state. The composition and the bindings may
  // depend on detector_impl only: build_specs reuses one inference per
  // detector.
  stack_ = std::make_unique<Stack>();
  const View empty;
  transport_ = &stack_->emplace<Transport>(opts_, events_, net_, self_);
  relcomm_ = &stack_->emplace<RelComm>(opts_, events_, self_, empty);
  relcast_ = &stack_->emplace<RelCast>(opts_, events_, self_, empty);
  if (opts_.detector_impl == DetectorImpl::kSwim) {
    detector_ = swim_ = &stack_->emplace<SwimDetector>(opts_, events_, self_, empty);
  } else {
    detector_ = fd_ = &stack_->emplace<FailureDetector>(opts_, events_, self_, empty);
  }
  consensus_ = &stack_->emplace<Consensus>(opts_, events_, self_, empty);
  abcast_ = &stack_->emplace<ABcast>(opts_, events_, self_, empty);
  causal_ = &stack_->emplace<CausalCast>(opts_, events_, self_, empty);
  membership_ = &stack_->emplace<Membership>(opts_, events_, self_, empty);
  sink_ = &stack_->emplace<DeliverSink>(opts_, events_);

  // ABcast's frontier mirror is atomic, so consensus may poll it from the
  // retry tick without taking ABcast's guard (no lock-order coupling).
  consensus_->set_frontier_source([ab = abcast_] { return ab->next_instance(); });

  bind_all();
  build_specs();

  RuntimeOptions rt_opts;
  rt_opts.policy = opts_.policy;
  rt_opts.record_trace = opts_.record_trace;
  rt_opts.clock = opts_.clock;
  runtime_ = std::make_unique<Runtime>(*stack_, rt_opts);
}

FailureDetector& GroupNode::fd() {
  if (fd_ == nullptr) throw ConfigError("GroupNode::fd: the heartbeat detector is not selected");
  return *fd_;
}

SwimDetector& GroupNode::swim() {
  if (swim_ == nullptr) throw ConfigError("GroupNode::swim: the SWIM detector is not selected");
  return *swim_;
}

GroupNode::~GroupNode() {
  timers_.cancel_all();
  net_.detach(self_);  // no further delivery callbacks after this returns
  // runtime_ destructor drains in-flight computations.
}

void GroupNode::bind_all() {
  // External events.
  stack_->bind(events_.rc_data, *relcomm_->recv_data_handler());
  stack_->bind(events_.rc_ack, *relcomm_->recv_ack_handler());
  stack_->bind(events_.cs_wire, *consensus_->on_wire_handler());
  stack_->bind(events_.view_install, *membership_->on_install_handler());
  stack_->bind(events_.retransmit_tick, *relcomm_->retransmit_handler());
  stack_->bind(events_.cs_retry_tick, *consensus_->retry_handler());
  const Handler* detector_view_change = nullptr;
  if (fd_ != nullptr) {
    stack_->bind(events_.fd_heartbeat, *fd_->on_heartbeat_handler());
    stack_->bind(events_.heartbeat_tick, *fd_->send_heartbeats_handler());
    stack_->bind(events_.fd_check_tick, *fd_->check_handler());
    detector_view_change = fd_->view_change_handler();
  } else {
    stack_->bind(events_.swim_wire, *swim_->on_wire_handler());
    stack_->bind(events_.swim_tick, *swim_->tick_handler());
    detector_view_change = swim_->view_change_handler();
  }
  // Membership ops are ordered by the same submit handler (see
  // Membership's joinleave).
  stack_->bind(events_.api_abcast, *abcast_->submit_handler());
  stack_->bind(events_.api_rbcast, *relcast_->bcast_handler());
  stack_->bind(events_.api_ccast, *causal_->submit_handler());
  stack_->bind(events_.api_joinleave, *membership_->joinleave_handler());

  // Internal plumbing.
  stack_->bind(events_.send_out, *relcomm_->send_handler());
  stack_->bind(events_.from_rcomm, *relcast_->recv_handler());
  stack_->bind(events_.bcast, *relcast_->bcast_handler());
  stack_->bind(events_.deliver_out, *abcast_->on_rdeliver_handler());
  stack_->bind(events_.deliver_out, *causal_->on_rdeliver_handler());
  stack_->bind(events_.deliver_out, *sink_->on_rdeliver_handler());
  stack_->bind(events_.adeliver, *membership_->on_adeliver_handler());
  stack_->bind(events_.adeliver, *sink_->on_adeliver_handler());
  stack_->bind(events_.causal_deliver, *sink_->on_cdeliver_handler());
  // ViewChange binding order is load-bearing for the Section 3 experiment:
  // RelCast adopts the new view first, RelComm (optionally delayed) last —
  // exactly the window in which an unsynchronised message computation sees
  // inconsistent views.
  stack_->bind(events_.view_change, *relcast_->view_change_handler());
  stack_->bind(events_.view_change, *relcomm_->view_change_handler());
  stack_->bind(events_.view_change, *detector_view_change);
  stack_->bind(events_.view_change, *consensus_->view_change_handler());
  stack_->bind(events_.view_change, *abcast_->view_change_handler());
  stack_->bind(events_.view_change, *causal_->view_change_handler());
  stack_->bind(events_.suspect, *consensus_->on_suspect_handler());
  stack_->bind(events_.cs_propose, *consensus_->propose_handler());
  stack_->bind(events_.cs_decided, *abcast_->on_decide_handler());
  stack_->bind(events_.abcast_catchup, *abcast_->on_catchup_handler());
  stack_->bind(events_.transport_send, *transport_->send_handler());

  sink_->set_view_source([mb = membership_] { return mb->view_snapshot().id(); });
}

namespace {

/// Root event type of each GroupNode::EventClass, in enum order.
constexpr EventType GcEvents::*kRootEvents[] = {
    &GcEvents::rc_data,         &GcEvents::rc_ack,         &GcEvents::fd_heartbeat,
    &GcEvents::swim_wire,       &GcEvents::cs_wire,        &GcEvents::view_install,
    &GcEvents::retransmit_tick, &GcEvents::heartbeat_tick, &GcEvents::fd_check_tick,
    &GcEvents::swim_tick,       &GcEvents::cs_retry_tick,  &GcEvents::api_rbcast,
    &GcEvents::api_abcast,      &GcEvents::api_ccast,      &GcEvents::api_joinleave,
};
constexpr std::size_t kEventClasses = std::size(kRootEvents);

/// A handler's place in a stack: its microprotocol's index in
/// Stack::microprotocols() and its index in that one's handlers().
struct HandlerPos {
  std::uint32_t mp = 0;
  std::uint32_t handler = 0;
};

/// One root event's inferred declaration in stack positions, so that it
/// maps onto every stack of the same shape.
struct InferredDecl {
  std::vector<std::uint32_t> members;
  std::vector<HandlerPos> entries;
  std::vector<std::pair<HandlerPos, HandlerPos>> edges;
};

using StackShape = std::array<InferredDecl, kEventClasses>;

StackShape infer_shape(const Stack& stack, const GcEvents& events) {
  StackShape shape;
  TriggerDeclarations triggers;
  std::unordered_map<MicroprotocolId, std::uint32_t> mp_pos;
  std::unordered_map<HandlerId, HandlerPos> handler_pos;
  const auto& mps = stack.microprotocols();
  for (std::uint32_t i = 0; i < mps.size(); ++i) {
    // GroupNode composes its stack from GcMicroprotocols only.
    static_cast<const GcMicroprotocol&>(*mps[i]).declare_triggers(triggers);
    mp_pos.emplace(mps[i]->id(), i);
    const auto& handlers = mps[i]->handlers();
    for (std::uint32_t j = 0; j < handlers.size(); ++j) {
      handler_pos.emplace(handlers[j]->id(), HandlerPos{i, j});
    }
  }
  for (std::size_t c = 0; c < kEventClasses; ++c) {
    const EventType& root = events.*kRootEvents[c];
    if (stack.bound_handlers(root.id()).empty()) continue;  // the unselected detector's
    InferredDecl& decl = shape[c];
    const Isolation basic = infer_members(stack, triggers, {root});
    for (MicroprotocolId mp : basic.members()) decl.members.push_back(mp_pos.at(mp));
    const Isolation route = infer_route(stack, triggers, {root});
    for (HandlerId h : route.route_spec().entries) decl.entries.push_back(handler_pos.at(h));
    for (const auto& [from, to] : route.route_spec().edges) {
      decl.edges.emplace_back(handler_pos.at(from), handler_pos.at(to));
    }
  }
  return shape;
}

/// The inferred declarations for stacks built with `detector`. Every
/// GroupNode with the same detector composes, binds and declares the same
/// stack, so inference runs once per process and detector; each node only
/// maps the positions onto its own microprotocols.
const StackShape& shape_for(DetectorImpl detector, const Stack& stack, const GcEvents& events) {
  static std::mutex mu;
  static std::map<DetectorImpl, const StackShape> shapes;  // nodes never move
  std::unique_lock lock(mu);
  auto it = shapes.find(detector);
  if (it == shapes.end()) it = shapes.emplace(detector, infer_shape(stack, events)).first;
  return it->second;
}

}  // namespace

void GroupNode::build_specs() {
  const StackShape& shape = shape_for(opts_.detector_impl, *stack_, events_);
  const auto& mps = stack_->microprotocols();
  const auto handler_at = [&mps](HandlerPos p) -> const Handler& {
    return *mps[p.mp]->handlers()[p.handler];
  };
  specs_.clear();
  specs_.reserve(kEventClasses);
  for (const InferredDecl& decl : shape) {
    if (opts_.policy == CCPolicy::kVCARoute) {
      RouteSpec route;
      for (HandlerPos p : decl.entries) route.entry(handler_at(p));
      for (const auto& [from, to] : decl.edges) route.edge(handler_at(from), handler_at(to));
      specs_.push_back(Isolation::route(std::move(route)));
    } else if (opts_.policy == CCPolicy::kVCABound) {
      // Generous over-declaration is legal under VCAbound; too small throws.
      constexpr std::uint32_t kBound = 256;
      std::vector<std::pair<const Microprotocol*, std::uint32_t>> bounds;
      bounds.reserve(decl.members.size());
      for (std::uint32_t i : decl.members) bounds.emplace_back(mps[i].get(), kBound);
      specs_.push_back(Isolation::bound(std::move(bounds)));
    } else {
      std::vector<const Microprotocol*> members;
      members.reserve(decl.members.size());
      for (std::uint32_t i : decl.members) members.push_back(mps[i].get());
      specs_.push_back(Isolation::basic(std::move(members)));
    }
  }
}

ComputationHandle GroupNode::spawn(EventClass klass, Message msg) {
  const auto i = static_cast<std::size_t>(klass);
  // The root event is a member of events_, which outlives the runtime and
  // so every computation it runs.
  return runtime_->spawn_isolated(specs_[i], [ev = &(events_.*kRootEvents[i]),
                                              msg = std::move(msg)](Context& ctx) {
    ctx.trigger(*ev, msg);
  });
}

void GroupNode::on_packet(const net::Packet& packet) {
  if (!started_.load(std::memory_order_acquire) || crashed_.load(std::memory_order_acquire)) {
    return;
  }
  // Unmarshal from the binary network format when the codec path is on;
  // otherwise the simulator carried Transport's FromWire itself, and the
  // computation shares that payload.
  const Message msg = opts_.serialize_wire
                          ? Message::of(net::decode_wire(
                                packet.payload.as<std::vector<std::uint8_t>>()))
                          : packet.payload;
  std::visit(
      [&](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, RcData>) {
          spawn(EventClass::kRcData, msg);
        } else if constexpr (std::is_same_v<T, RcAck>) {
          spawn(EventClass::kRcAck, msg);
        } else if constexpr (std::is_same_v<T, FdHeartbeat>) {
          // A detector this node did not build has no handler: drop.
          if (fd_ != nullptr) spawn(EventClass::kFdHeartbeat, msg);
        } else if constexpr (std::is_same_v<T, SwimPing> || std::is_same_v<T, SwimAck> ||
                             std::is_same_v<T, SwimPingReq>) {
          if (swim_ != nullptr) spawn(EventClass::kSwimWire, msg);
        } else if constexpr (std::is_same_v<T, ViewInstall>) {
          spawn(EventClass::kViewInstall, msg);
        } else {
          spawn(EventClass::kCsWire, msg);
        }
      },
      msg.as<FromWire>().wire);
}

void GroupNode::start(View initial_view) {
  if (started_.exchange(true)) throw ConfigError("GroupNode::start called twice");
  if (initial_view.id() == 0) {
    throw ConfigError("initial view must have id >= 1 (id 0 is the empty pre-start view)");
  }
  // Install the initial view through the regular ViewInstall path so every
  // microprotocol learns it inside one isolated computation.
  spawn(EventClass::kViewInstall,
        Message::of(FromWire{self_, Wire{ViewInstall{initial_view.id(), initial_view.members()}}}))
      .wait();

  arm_timers();
}

void GroupNode::spawn_tick(std::size_t slot, EventClass klass) {
  if (crashed_.load(std::memory_order_acquire)) return;
  std::unique_lock lock(tick_mu_);
  ComputationHandle& prev = last_tick_[slot];
  if (prev.valid() && !prev.done()) {
    ticks_coalesced_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  prev = spawn(klass, Message{});
}

void GroupNode::arm_timers() {
  timers_.schedule_periodic(opts_.retransmit_interval, [this] {
    spawn_tick(0, EventClass::kRetransmitTick);
  });
  // Only the selected failure detector is built, so only its ticks run.
  if (fd_ != nullptr) {
    timers_.schedule_periodic(opts_.heartbeat_interval, [this] {
      spawn_tick(1, EventClass::kHeartbeatTick);
    });
    timers_.schedule_periodic(opts_.fd_timeout, [this] {
      spawn_tick(2, EventClass::kFdCheckTick);
    });
  } else {
    // The SWIM tick runs at the ack-timeout resolution: the state machine
    // (direct deadline, period deadline, suspicion expiry) is time-
    // compared inside the handler, so one fast tick drives all of it.
    timers_.schedule_periodic(opts_.swim_ack_timeout, [this] {
      spawn_tick(4, EventClass::kSwimTick);
    });
  }
  timers_.schedule_periodic(opts_.cs_retry_interval, [this] {
    spawn_tick(3, EventClass::kCsRetryTick);
  });
}

void GroupNode::crash() {
  crashed_.store(true, std::memory_order_release);
  timers_.cancel_all();
  net_.crash(self_);
}

void GroupNode::archive_incarnation() {
  IncarnationArchive arc;
  arc.records = sink_->delivery_records();
  arc.adelivered = sink_->adelivered();
  arc.views = membership_->installed_views();
  arc.retransmissions = relcomm_->retransmissions();
  arc.view_change_drops = relcomm_->view_change_drops();
  arc.joins_completed = membership_->joins_completed();
  arc.failed_computations = runtime_->stats().failed.value();
  std::unique_lock lock(archive_mu_);
  archives_.push_back(std::move(arc));
}

void GroupNode::restart() {
  if (!started_.load(std::memory_order_acquire)) {
    throw ConfigError("GroupNode::restart: node was never started");
  }
  if (!crashed_.load(std::memory_order_acquire)) {
    throw ConfigError("GroupNode::restart: node is not crashed");
  }
  // crash() already cancelled the timers and marked the site crashed;
  // detach additionally waits out any delivery callback still executing,
  // so after drain() nothing can reach the old stack any more.
  net_.detach(self_);
  runtime_->drain();
  archive_incarnation();
  runtime_.reset();  // destroy the runtime before the stack it runs on
  ++opts_.id_epoch;  // new incarnation: fresh MsgId subspace (see wire.hpp)
  rb_seq_.store(0, std::memory_order_relaxed);
  build_stack();
  net_.attach(self_, [this](const net::Packet& packet) { on_packet(packet); });
  crashed_.store(false, std::memory_order_release);
  net_.recover(self_);
  arm_timers();
}

std::vector<GroupNode::IncarnationArchive> GroupNode::archives() const {
  std::unique_lock lock(archive_mu_);
  return archives_;
}

std::uint64_t GroupNode::rejoins_completed() const {
  std::uint64_t total = membership_->joins_completed();
  std::unique_lock lock(archive_mu_);
  for (const auto& arc : archives_) total += arc.joins_completed;
  return total;
}

std::uint64_t GroupNode::total_retransmissions() const {
  std::uint64_t total = relcomm_->retransmissions();
  std::unique_lock lock(archive_mu_);
  for (const auto& arc : archives_) total += arc.retransmissions;
  return total;
}

std::uint64_t GroupNode::failed_computations() const {
  std::uint64_t total = runtime_->stats().failed.value();
  std::unique_lock lock(archive_mu_);
  for (const auto& arc : archives_) total += arc.failed_computations;
  return total;
}

std::vector<verify::IncarnationTrace> GroupNode::vs_traces() const {
  std::vector<verify::IncarnationTrace> traces;
  {
    std::unique_lock lock(archive_mu_);
    for (std::size_t i = 0; i < archives_.size(); ++i) {
      verify::IncarnationTrace t;
      t.site = self_;
      t.incarnation = i;
      t.crashed = true;  // only restart() archives, and it requires a crash
      t.deliveries = archives_[i].records;
      t.views = archives_[i].views;
      traces.push_back(std::move(t));
    }
  }
  verify::IncarnationTrace cur;
  cur.site = self_;
  cur.incarnation = opts_.id_epoch;
  cur.crashed = crashed_.load(std::memory_order_acquire);
  cur.deliveries = sink_->delivery_records();
  cur.views = membership_->installed_views();
  traces.push_back(std::move(cur));
  return traces;
}

ComputationHandle GroupNode::rbcast(std::string data) {
  // Plain reliable broadcasts draw ids from a separate subspace (high bit
  // of the per-origin sequence) so they never collide with ABcast ids.
  const std::uint64_t seq = kPlainChannelBit | epoch_bits(opts_.id_epoch) | ++rb_seq_;
  AppMessage msg{make_msg_id(self_, seq), std::move(data), /*atomic=*/false};
  return spawn(EventClass::kApiRbcast, Message::of(msg));
}

ComputationHandle GroupNode::abcast(std::string data) {
  return spawn(EventClass::kApiAbcast, Message::of(std::move(data)));
}

ComputationHandle GroupNode::ccast(std::string data) {
  return spawn(EventClass::kApiCcast, Message::of(std::move(data)));
}

ComputationHandle GroupNode::request_join(SiteId newcomer) {
  return spawn(EventClass::kApiJoinLeave, Message::of(JoinLeave{'+', newcomer}));
}

ComputationHandle GroupNode::request_leave(SiteId member) {
  return spawn(EventClass::kApiJoinLeave, Message::of(JoinLeave{'-', member}));
}

}  // namespace samoa::gc
