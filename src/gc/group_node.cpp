#include "core/context.hpp"
#include "gc/group_node.hpp"

#include "core/errors.hpp"

namespace samoa::gc {

DeliverSink::DeliverSink(const GcOptions& opts, const GcEvents&)
    : GcMicroprotocol("app", opts) {
  on_rdeliver_ = &register_handler("on_rdeliver", [this](Context&, const Message& m) {
    auto lock = guard();
    const auto& msg = m.as<AppMessage>();
    if (msg.atomic) return;  // atomic payloads are delivered via ADeliver
    // Control payloads (causal headers, sequencer order announcements)
    // share the 0x01 prefix byte and are not application messages.
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
  // back with empty volatile state.
  stack_ = std::make_unique<Stack>();
  const View empty;
  transport_ = &stack_->emplace<Transport>(opts_, events_, net_, self_);
  relcomm_ = &stack_->emplace<RelComm>(opts_, events_, self_, empty);
  relcast_ = &stack_->emplace<RelCast>(opts_, events_, self_, empty);
  fd_ = &stack_->emplace<FailureDetector>(opts_, events_, self_, empty);
  swim_ = &stack_->emplace<SwimDetector>(opts_, events_, self_, empty);
  consensus_ = &stack_->emplace<Consensus>(opts_, events_, self_, empty);
  abcast_ = &stack_->emplace<ABcast>(opts_, events_, self_, empty);
  causal_ = &stack_->emplace<CausalCast>(opts_, events_, self_, empty);
  seq_abcast_ = &stack_->emplace<SeqABcast>(opts_, events_, self_, empty);
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

GroupNode::~GroupNode() {
  timers_.cancel_all();
  net_.detach(self_);  // no further delivery callbacks after this returns
  // runtime_ destructor drains in-flight computations.
}

void GroupNode::bind_all() {
  // External events.
  stack_->bind(events_.rc_data, *relcomm_->recv_data_handler());
  stack_->bind(events_.rc_ack, *relcomm_->recv_ack_handler());
  stack_->bind(events_.fd_heartbeat, *fd_->on_heartbeat_handler());
  stack_->bind(events_.swim_wire, *swim_->on_wire_handler());
  stack_->bind(events_.cs_wire, *consensus_->on_wire_handler());
  stack_->bind(events_.view_install, *membership_->on_install_handler());
  stack_->bind(events_.retransmit_tick, *relcomm_->retransmit_handler());
  stack_->bind(events_.heartbeat_tick, *fd_->send_heartbeats_handler());
  stack_->bind(events_.fd_check_tick, *fd_->check_handler());
  stack_->bind(events_.swim_tick, *swim_->tick_handler());
  stack_->bind(events_.cs_retry_tick, *consensus_->retry_handler());
  if (opts_.abcast_impl == ABcastImpl::kConsensus) {
    stack_->bind(events_.api_abcast, *abcast_->submit_handler());
  } else {
    stack_->bind(events_.api_abcast, *seq_abcast_->submit_handler());
  }
  stack_->bind(events_.api_rbcast, *relcast_->bcast_handler());
  stack_->bind(events_.api_ccast, *causal_->submit_handler());
  stack_->bind(events_.api_joinleave, *membership_->joinleave_handler());

  // Internal plumbing.
  stack_->bind(events_.send_out, *relcomm_->send_handler());
  stack_->bind(events_.from_rcomm, *relcast_->recv_handler());
  stack_->bind(events_.bcast, *relcast_->bcast_handler());
  stack_->bind(events_.deliver_out, *abcast_->on_rdeliver_handler());
  if (opts_.abcast_impl == ABcastImpl::kSequencer) {
    stack_->bind(events_.deliver_out, *seq_abcast_->on_rdeliver_handler());
  }
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
  stack_->bind(events_.view_change, *fd_->view_change_handler());
  stack_->bind(events_.view_change, *swim_->view_change_handler());
  stack_->bind(events_.view_change, *consensus_->view_change_handler());
  stack_->bind(events_.view_change, *abcast_->view_change_handler());
  stack_->bind(events_.view_change, *causal_->view_change_handler());
  stack_->bind(events_.view_change, *seq_abcast_->view_change_handler());
  stack_->bind(events_.suspect, *consensus_->on_suspect_handler());
  stack_->bind(events_.cs_propose, *consensus_->propose_handler());
  stack_->bind(events_.cs_decided, *abcast_->on_decide_handler());
  // Membership ops always order through the consensus implementation (see
  // events.hpp); under the sequencer impl the consensus ABcast still needs
  // its dissemination input, so bind its rdeliver tap unconditionally.
  stack_->bind(events_.membership_abcast, *abcast_->submit_handler());
  stack_->bind(events_.abcast_catchup, *abcast_->on_catchup_handler());
  stack_->bind(events_.seq_catchup, *seq_abcast_->on_catchup_handler());
  stack_->bind(events_.transport_send, *transport_->send_handler());

  membership_->set_order_floor_source([sa = seq_abcast_] { return sa->order_floor(); });
  sink_->set_view_source([mb = membership_] { return mb->view_snapshot().id(); });
}

Isolation GroupNode::make_spec(EventClass klass) const {
  std::vector<const Microprotocol*> members;
  switch (klass) {
    case EventClass::kRcData:
      // Under the sequencer implementation the total-order delivery (and
      // hence the membership/view-change cascade) can fire directly from a
      // data packet's computation, so the declaration covers the full
      // stack (over-declaration is always legal).
      members = {transport_, relcomm_, relcast_,   abcast_, seq_abcast_, causal_,
                 consensus_, fd_,      swim_,       membership_, sink_};
      break;
    case EventClass::kRcAck:
      members = {transport_, relcomm_};
      break;
    case EventClass::kFdHeartbeat:
      members = {fd_};
      break;
    case EventClass::kSwimWire:
      // Piggybacked updates can raise a suspicion, and the Suspect event
      // feeds consensus (coordinator rotation), which sends.
      members = {transport_, swim_, consensus_};
      break;
    case EventClass::kCsWire:
      members = {transport_, relcomm_, relcast_, fd_,      swim_, consensus_, abcast_,
                 seq_abcast_, causal_, membership_, sink_};
      break;
    case EventClass::kViewInstall:
      members = {transport_, relcomm_, relcast_, fd_, swim_, consensus_, abcast_,
                 seq_abcast_, causal_, membership_};
      break;
    case EventClass::kRetransmitTick:
      members = {transport_, relcomm_};
      break;
    case EventClass::kHeartbeatTick:
      members = {transport_, fd_};
      break;
    case EventClass::kFdCheckTick:
      members = {transport_, fd_, consensus_};
      break;
    case EventClass::kSwimTick:
      members = {transport_, swim_, consensus_};
      break;
    case EventClass::kCsRetryTick:
      members = {transport_, consensus_};
      break;
    case EventClass::kApiRbcast:
      members = {transport_, relcomm_, relcast_, abcast_, seq_abcast_, causal_, sink_};
      break;
    case EventClass::kApiCcast:
      members = {transport_, relcomm_, relcast_, abcast_, seq_abcast_, causal_, sink_};
      break;
    case EventClass::kApiAbcast:
      // The submitting site may itself be the sequencer: ordering (and the
      // adeliver cascade) can complete synchronously inside this call.
      members = {transport_, relcomm_, relcast_,   abcast_, seq_abcast_, causal_,
                 consensus_, fd_,      swim_,       membership_, sink_};
      break;
    case EventClass::kApiJoinLeave:
      members = {transport_, relcomm_, relcast_, abcast_, consensus_, membership_};
      break;
  }
  if (opts_.policy == CCPolicy::kVCABound) {
    std::vector<std::pair<const Microprotocol*, std::uint32_t>> bounds;
    bounds.reserve(members.size());
    // Generous over-declaration is legal under VCAbound; too small throws.
    constexpr std::uint32_t kBound = 256;
    for (const auto* mp : members) bounds.emplace_back(mp, kBound);
    return Isolation::bound(std::move(bounds));
  }
  return Isolation::basic(std::move(members));
}

void GroupNode::build_specs() {
  specs_.clear();
  if (opts_.policy == CCPolicy::kVCARoute) return;
  specs_.reserve(kEventClasses);
  for (std::size_t i = 0; i < kEventClasses; ++i) {
    specs_.push_back(make_spec(static_cast<EventClass>(i)));
  }
}

ComputationHandle GroupNode::spawn(EventClass klass, const EventType& ev, Message msg) {
  if (specs_.empty()) {
    throw ConfigError(
        "GroupNode does not support VCAroute: the stack's call patterns are "
        "data-dependent (the paper notes the variants' use is limited when "
        "routing cannot be declared statically)");
  }
  // `ev` is one of events_, which outlives the runtime and so every
  // computation it runs.
  return runtime_->spawn_isolated(specs_[static_cast<std::size_t>(klass)],
                                  [ev = &ev, msg = std::move(msg)](Context& ctx) {
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
          spawn(EventClass::kRcData, events_.rc_data, msg);
        } else if constexpr (std::is_same_v<T, RcAck>) {
          spawn(EventClass::kRcAck, events_.rc_ack, msg);
        } else if constexpr (std::is_same_v<T, FdHeartbeat>) {
          spawn(EventClass::kFdHeartbeat, events_.fd_heartbeat, msg);
        } else if constexpr (std::is_same_v<T, SwimPing> || std::is_same_v<T, SwimAck> ||
                             std::is_same_v<T, SwimPingReq>) {
          spawn(EventClass::kSwimWire, events_.swim_wire, msg);
        } else if constexpr (std::is_same_v<T, ViewInstall>) {
          spawn(EventClass::kViewInstall, events_.view_install, msg);
        } else {
          spawn(EventClass::kCsWire, events_.cs_wire, msg);
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
  spawn(EventClass::kViewInstall, events_.view_install,
        Message::of(FromWire{self_, Wire{ViewInstall{initial_view.id(), initial_view.members()}}}))
      .wait();

  arm_timers();
}

void GroupNode::spawn_tick(std::size_t slot, EventClass klass, const EventType& ev) {
  if (crashed_.load(std::memory_order_acquire)) return;
  std::unique_lock lock(tick_mu_);
  ComputationHandle& prev = last_tick_[slot];
  if (prev.valid() && !prev.done()) {
    ticks_coalesced_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  prev = spawn(klass, ev, Message{});
}

void GroupNode::arm_timers() {
  timers_.schedule_periodic(opts_.retransmit_interval, [this] {
    spawn_tick(0, EventClass::kRetransmitTick, events_.retransmit_tick);
  });
  // Only the selected failure detector's ticks run; the other detector's
  // microprotocol sits in the stack unticked (its handlers never fire).
  if (opts_.detector_impl == DetectorImpl::kHeartbeat) {
    timers_.schedule_periodic(opts_.heartbeat_interval, [this] {
      spawn_tick(1, EventClass::kHeartbeatTick, events_.heartbeat_tick);
    });
    timers_.schedule_periodic(opts_.fd_timeout, [this] {
      spawn_tick(2, EventClass::kFdCheckTick, events_.fd_check_tick);
    });
  } else {
    // The SWIM tick runs at the ack-timeout resolution: the state machine
    // (direct deadline, period deadline, suspicion expiry) is time-
    // compared inside the handler, so one fast tick drives all of it.
    timers_.schedule_periodic(opts_.swim_ack_timeout, [this] {
      spawn_tick(4, EventClass::kSwimTick, events_.swim_tick);
    });
  }
  timers_.schedule_periodic(opts_.cs_retry_interval, [this] {
    spawn_tick(3, EventClass::kCsRetryTick, events_.cs_retry_tick);
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
  return spawn(EventClass::kApiRbcast, events_.api_rbcast, Message::of(msg));
}

ComputationHandle GroupNode::abcast(std::string data) {
  return spawn(EventClass::kApiAbcast, events_.api_abcast, Message::of(std::move(data)));
}

ComputationHandle GroupNode::ccast(std::string data) {
  return spawn(EventClass::kApiCcast, events_.api_ccast, Message::of(std::move(data)));
}

ComputationHandle GroupNode::request_join(SiteId newcomer) {
  return spawn(EventClass::kApiJoinLeave, events_.api_joinleave,
               Message::of(JoinLeave{'+', newcomer}));
}

ComputationHandle GroupNode::request_leave(SiteId member) {
  return spawn(EventClass::kApiJoinLeave, events_.api_joinleave,
               Message::of(JoinLeave{'-', member}));
}

}  // namespace samoa::gc
