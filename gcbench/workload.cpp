#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>

#include "gc/group_node.hpp"
#include "net/sim_network.hpp"
#include "net/timer_service.hpp"
#include "time/clock.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "verify/vs_checker.hpp"

namespace gcbench {
namespace {

using namespace samoa;
using std::chrono::microseconds;
using SteadyClock = std::chrono::steady_clock;

double us_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t vol_ctx_switches = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return Usage{static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6,
               static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6,
               static_cast<std::uint64_t>(ru.ru_nvcsw)};
}

std::uint64_t threads_now() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      std::uint64_t n = 0;
      status >> n;
      return n;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

/// Payload of message `m`: "m<m>|" followed by seeded filler up to `bytes`.
std::string make_payload(std::size_t m, std::size_t bytes, Rng& rng) {
  std::string s = "m" + std::to_string(m) + "|";
  while (s.size() < bytes) s.push_back(static_cast<char>('a' + rng.next_below(26)));
  return s;
}

/// Inverse of make_payload; -1 if `data` is not one of ours.
long parse_payload(const std::string& data) {
  if (data.size() < 3 || data[0] != 'm') return -1;
  long m = 0;
  std::size_t i = 1;
  for (; i < data.size() && data[i] != '|'; ++i) {
    if (data[i] < '0' || data[i] > '9') return -1;
    m = m * 10 + (data[i] - '0');
  }
  return i < data.size() ? m : -1;
}

/// One fleet on one network. The network is declared first so it outlives
/// the nodes (each node detaches from it in its destructor).
struct Fleet {
  Fleet(const WorkloadConfig& cfg, std::uint64_t seed, time::ClockSource* clock)
      : net(net::LinkOptions{.base_latency = cfg.base_latency,
                             .jitter = cfg.jitter,
                             .drop_probability = cfg.drop_probability},
            seed, clock) {
    gc::GcOptions opts;
    opts.clock = clock;
    opts.rng_seed = seed;
    opts.detector_impl = cfg.detector;
    options = opts;
    for (int i = 0; i < cfg.sites; ++i) nodes.push_back(std::make_unique<gc::GroupNode>(net, opts));
    for (auto& n : nodes) members.push_back(n->id());
  }

  void start() {
    for (auto& n : nodes) n->start(gc::View(1, members));
  }

  void stop_timers() {
    for (auto& n : nodes) n->stop_timers();
  }

  /// Drain to the fixpoint: a drained packet can complete a computation
  /// that sends more, so loop until a round adds no network activity.
  void quiesce() {
    std::uint64_t prev = ~std::uint64_t{0};
    for (;;) {
      net.drain();
      for (auto& n : nodes) n->drain();
      const auto& st = net.stats();
      const std::uint64_t total = st.sent.value() + st.delivered.value() + st.dropped.value();
      if (total == prev) break;
      prev = total;
    }
  }

  net::SimNetwork net;
  gc::GcOptions options;
  std::vector<std::unique_ptr<gc::GroupNode>> nodes;
  std::vector<SiteId> members;
};

/// Delivery observation by polling. Positions in the total order are
/// counted from one source, ABcast's delivered() counter: it also counts
/// membership operations, so when views change (churn) the number of
/// membership ops delivered so far — the view id minus the initial id 1,
/// since every op installs exactly one view — is subtracted to get the
/// application position.
class Observer {
 public:
  Observer(Fleet& fleet, bool views_change)
      : fleet_(fleet),
        views_change_(views_change),
        live_(fleet.nodes.size(), true),
        seen_(fleet.nodes.size()),
        last_ab_(fleet.nodes.size(), 0) {}

  void mark_crashed(std::size_t site) { live_[site] = false; }
  bool live(std::size_t site) const { return live_[site]; }

  /// Stamp `now_us` on every application position a live site delivered
  /// since the previous poll.
  void poll(double now_us) {
    for (std::size_t i = 0; i < seen_.size(); ++i) {
      if (!live_[i]) continue;
      auto& node = *fleet_.nodes[i];
      const std::uint64_t ab = node.ab().delivered();
      if (ab == last_ab_[i]) continue;
      last_ab_[i] = ab;
      std::uint64_t app = ab;
      if (views_change_) app -= node.membership().view_snapshot().id() - 1;
      while (seen_[i].size() < app) seen_[i].push_back(now_us);
    }
  }

  /// Application positions delivered at every live site.
  std::size_t completed() const {
    std::size_t c = ~std::size_t{0};
    for (std::size_t i = 0; i < seen_.size(); ++i) {
      if (live_[i]) c = std::min(c, seen_[i].size());
    }
    return c;
  }

  const std::vector<double>& seen(std::size_t site) const { return seen_[site]; }

 private:
  Fleet& fleet_;
  const bool views_change_;
  std::vector<bool> live_;
  std::vector<std::vector<double>> seen_;
  std::vector<std::uint64_t> last_ab_;
};

struct Issued {
  double due_us = 0;   // when the generator meant to call abcast()
  double call_us = 0;  // when it did
  std::size_t origin = 0;
  ComputationHandle handle;
};

void fail(EpisodeResult& r, std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  r.failed += n;
  if (r.failures.size() < 8) r.failures.push_back(why + " (x" + std::to_string(n) + ")");
}

/// The correctness gate plus the latency samples of messages due inside
/// [window_begin_us, window_end_us). Returns, per message, the time it was
/// delivered at the last live site (-1 if never).
std::vector<double> check_and_measure(Fleet& fleet, const Observer& obs,
                                      const std::vector<Issued>& issued, double window_begin_us,
                                      double window_end_us, EpisodeResult& r) {
  const std::size_t n = fleet.nodes.size();
  const std::size_t msgs = issued.size();
  r.attempted += msgs;

  std::vector<std::vector<long>> orders(n);
  std::size_t ref = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (!obs.live(i)) continue;
    if (ref == n) ref = i;
    for (const auto& m : fleet.nodes[i]->sink().adelivered()) orders[i].push_back(parse_payload(m.data));
  }

  // Exactly once at every live site.
  std::uint64_t bad_msgs = 0, foreign = 0;
  std::vector<std::uint32_t> count(msgs);
  std::vector<bool> bad(msgs, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (!obs.live(i)) continue;
    std::fill(count.begin(), count.end(), 0);
    for (long m : orders[i]) {
      if (m < 0 || static_cast<std::size_t>(m) >= msgs) {
        ++foreign;
      } else {
        ++count[m];
      }
    }
    for (std::size_t m = 0; m < msgs; ++m) bad[m] = bad[m] || count[m] != 1;
  }
  for (std::size_t m = 0; m < msgs; ++m) bad_msgs += bad[m] ? 1 : 0;
  fail(r, bad_msgs, "message not delivered exactly once at every live site");
  fail(r, foreign, "delivered payload that was never issued");

  // One total order, and the polled counts agree with the delivered lists.
  std::uint64_t disagree = 0, miscounted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!obs.live(i)) continue;
    if (orders[i] != orders[ref]) ++disagree;
    if (obs.seen(i).size() != orders[i].size()) ++miscounted;
  }
  fail(r, disagree, "live site disagrees with site " + std::to_string(ref) + " on the total order");
  fail(r, miscounted, "polled delivery count differs from the delivered list");

  std::uint64_t failed_handles = 0;
  for (const auto& is : issued) failed_handles += is.handle.valid() && is.handle.failed() ? 1 : 0;
  fail(r, failed_handles, "abcast computation failed");

  std::vector<verify::IncarnationTrace> traces;
  for (auto& node : fleet.nodes) {
    for (auto& t : node->vs_traces()) traces.push_back(std::move(t));
  }
  const verify::VsReport vs = verify::check_virtual_synchrony(traces);
  r.vs_violations = vs.violations.size();
  fail(r, r.vs_violations, "virtual-synchrony violation");

  // Latency: from the due time to delivery at the last live site, per
  // total-order position (the order is the same everywhere when it passed).
  std::vector<double> done(msgs, -1);
  if (disagree != 0 || miscounted != 0) return done;
  for (std::size_t k = 0; k < orders[ref].size(); ++k) {
    const long m = orders[ref][k];
    if (m < 0 || static_cast<std::size_t>(m) >= msgs) continue;
    double last = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (obs.live(i)) last = std::max(last, obs.seen(i)[k]);
    }
    done[m] = last;
    const Issued& is = issued[m];
    if (is.due_us >= window_begin_us && is.due_us < window_end_us) {
      r.latency_us.push_back(last - is.due_us);
      if (obs.live(is.origin)) r.origin_latency_us.push_back(obs.seen(is.origin)[k] - is.due_us);
    }
  }
  r.messages_delivered =
      static_cast<std::uint64_t>(std::count_if(done.begin(), done.end(), [](double d) { return d >= 0; }));
  return done;
}

/// Per-layer counters summed over every site (see LayerCounts).
void collect_layers(Fleet& fleet, const Observer& obs, LayerCounts& l) {
  for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
    auto& node = *fleet.nodes[i];
    const CCStats& cc = node.runtime().controller().stats();
    l.admissions += cc.admissions.value();
    l.admit_slow += cc.admit_slow.value();
    l.gate_waits += cc.gate_waits.value();
    if (const std::uint64_t timed = cc.gate_wait_time.count(); timed > 0) {
      l.gate_wait_p50_ns_weighted += cc.gate_wait_time.quantile_ns(0.5) * static_cast<double>(timed);
      l.gate_waits_timed += timed;
      l.gate_wait_us_p99 = std::max(l.gate_wait_us_p99, cc.gate_wait_time.quantile_ns(0.99) / 1e3);
    }
    l.exec_dispatched += cc.exec_dispatched.value();
    l.exec_batches += cc.exec_batches.value();
    l.exec_enqueues += cc.exec_enqueues.value();
    l.exec_overflow += cc.exec_overflow.value();
    l.exec_handoffs += cc.exec_handoffs.value();
    l.exec_wakeups += cc.exec_wakeups.value();
    l.exec_queue_depth_p99 = std::max(l.exec_queue_depth_p99, cc.exec_queue_depth.quantile_ns(0.99));

    l.spawned += node.runtime().stats().spawned.value();
    l.handler_calls += node.runtime().stats().handler_calls.value();
    l.retransmissions += node.rel_comm().retransmissions();
    l.flow_deferred += node.rel_comm().flow_deferred();
    l.rel_cast_broadcasts += node.rel_cast().broadcasts();
    l.rounds_started += node.consensus().rounds_started();
    l.ticks_coalesced += node.ticks_coalesced();
    if (obs.live(i)) {
      l.suspicions += node.detector().suspicions();
      l.revocations += node.detector().suspicion_revocations();
    }
    if (node.options().detector_impl == gc::DetectorImpl::kSwim) {
      l.swim_piggybacked += node.swim().updates_piggybacked();
    }
  }
  l.instances_decided += fleet.nodes[0]->consensus().decided_count();
  l.ab_delivered_site0 += fleet.nodes[0]->ab().delivered();
  l.packets_sent += fleet.net.stats().sent.value();
  l.packets_dropped += fleet.net.stats().dropped.value();
}

/// Firings of the periodic timers GroupNode arms (see GroupNode::arm_timers),
/// for a node whose timers ran `active_us`.
std::uint64_t node_timer_fires(const gc::GcOptions& o, double active_us) {
  const auto fires = [active_us](microseconds interval) {
    return static_cast<std::uint64_t>(active_us / static_cast<double>(interval.count()));
  };
  std::uint64_t f = fires(o.retransmit_interval) + fires(o.cs_retry_interval);
  if (o.detector_impl == gc::DetectorImpl::kHeartbeat) {
    f += fires(o.heartbeat_interval) + fires(o.fd_timeout);
  } else {
    f += fires(o.swim_ack_timeout);
  }
  return f;
}

Segment segment_between(const Usage& u0, const Usage& u1, std::uint64_t packets0, std::uint64_t packets1) {
  Segment s;
  s.packets = packets1 - packets0;
  s.cpu_user_s = u1.user_s - u0.user_s;
  s.cpu_sys_s = u1.sys_s - u0.sys_s;
  s.vol_ctx_switches = u1.vol_ctx_switches - u0.vol_ctx_switches;
  return s;
}

EpisodeResult run_wall(const WorkloadConfig& cfg, std::uint64_t seed, SpanRecorder& spans) {
  EpisodeResult r;
  const auto setup_begin = SteadyClock::now();
  Fleet fleet(cfg, seed, nullptr);
  fleet.start();
  Observer obs(fleet, false);
  Rng rng(seed);
  const std::size_t sites = fleet.nodes.size();
  const std::size_t first_origin = rng.next_below(sites);
  std::vector<Issued> issued;

  // The measured window [warmup, seconds) is cut into one-second buckets;
  // at each boundary the loop snapshots CPU usage and the packet count.
  const auto t0 = SteadyClock::now();
  const auto now_us = [t0] { return us_between(t0, SteadyClock::now()); };
  const double window_begin = cfg.warmup_s * 1e6;
  const double window_end = cfg.seconds * 1e6;
  const int buckets = std::max(1, static_cast<int>(std::lround(cfg.seconds - cfg.warmup_s)));
  const double bucket_us = (window_end - window_begin) / buckets;
  struct Snapshot {
    double at_us;
    Usage usage;
    std::uint64_t packets;
  };
  std::vector<Snapshot> snaps;
  std::uint64_t polls = 0;
  std::size_t released = 0;
  std::uint64_t failed_calls = 0;
  r.threads_peak = threads_now();

  const auto observe = [&](double now) {
    spans.span("observe", polls, now, [&] { obs.poll(now); });
    if (++polls % 1024 == 0) r.threads_peak = std::max(r.threads_peak, threads_now());
  };

  for (;;) {
    const double now = now_us();
    if (now >= window_begin + bucket_us * static_cast<double>(snaps.size())) {
      snaps.push_back(Snapshot{now, usage_now(), fleet.net.stats().sent.value()});
      if (snaps.size() == static_cast<std::size_t>(buckets) + 1) break;
    }
    observe(now);
    while (issued.size() - obs.completed() < static_cast<std::size_t>(cfg.outstanding)) {
      const std::size_t m = issued.size();
      Issued is;
      is.origin = (first_origin + m) % sites;
      const std::string payload = make_payload(m, kPayloadBytes, rng);
      is.due_us = is.call_us = now_us();
      const auto c0 = SteadyClock::now();
      is.handle = spans.span("abcast", m, is.call_us,
                             [&] { return fleet.nodes[is.origin]->abcast(payload); });
      r.abcast_call_us.push_back(us_between(c0, SteadyClock::now()));
      issued.push_back(std::move(is));
    }
    // Release finished submissions as we go: a handle keeps its whole
    // computation alive, which would grow memory with the run's length.
    for (; released < issued.size() && issued[released].handle.done(); ++released) {
      if (issued[released].handle.failed()) ++failed_calls;
      issued[released].handle = ComputationHandle();
    }
    std::this_thread::sleep_for(microseconds(20));
  }
  r.wall_s = now_us() / 1e6;

  // Let the outstanding messages finish, then stop timers and drain.
  const auto give_up = SteadyClock::now() + std::chrono::seconds(10);
  while (obs.completed() < issued.size() && SteadyClock::now() < give_up) {
    observe(now_us());
    std::this_thread::sleep_for(microseconds(50));
  }
  const double timers_us = now_us() + us_between(setup_begin, t0);
  fleet.stop_timers();
  fleet.quiesce();
  obs.poll(now_us());

  fail(r, failed_calls, "abcast computation failed");
  const std::vector<double> done =
      check_and_measure(fleet, obs, issued, snaps.front().at_us, snaps.back().at_us, r);
  for (std::size_t b = 0; b + 1 < snaps.size(); ++b) {
    Segment s = segment_between(snaps[b].usage, snaps[b + 1].usage, snaps[b].packets, snaps[b + 1].packets);
    s.wall_s = s.clock_s = (snaps[b + 1].at_us - snaps[b].at_us) / 1e6;
    s.deliveries = static_cast<std::uint64_t>(std::count_if(done.begin(), done.end(), [&](double d) {
      return d >= snaps[b].at_us && d < snaps[b + 1].at_us;
    }));
    r.segments.push_back(s);
  }
  collect_layers(fleet, obs, r.layers);
  r.layers.timer_fires = sites * node_timer_fires(fleet.options, timers_us);
  return r;
}

EpisodeResult run_virtual(const WorkloadConfig& cfg, std::uint64_t seed, SpanRecorder& spans) {
  EpisodeResult r;
  time::VirtualClock clock;
  Fleet fleet(cfg, seed, &clock);
  Observer obs(fleet, cfg.crashes > 0);
  const std::size_t sites = fleet.nodes.size();
  const std::size_t survivors = sites - static_cast<std::size_t>(cfg.crashes);
  const std::size_t msgs = static_cast<std::size_t>(cfg.messages);

  // Inputs: seeded origins (survivors only, so no message dies with its
  // sender) and payloads, one abcast every 1/rate virtual seconds.
  Rng rng(seed);
  const double interval_us = 1e6 / kVtRatePerS;
  const double first_due_us = 1000;
  std::vector<Issued> issued(msgs);
  std::vector<std::string> payloads(msgs);
  for (std::size_t m = 0; m < msgs; ++m) {
    issued[m].origin = rng.next_below(survivors);
    issued[m].due_us = std::round(first_due_us + interval_us * static_cast<double>(m));
    payloads[m] = make_payload(m, kPayloadBytes, rng);
  }
  const double crash_due_us = std::round(first_due_us + interval_us * static_cast<double>(msgs / 3));
  const double last_due_us = msgs > 0 ? issued.back().due_us : first_due_us;
  const double horizon_us = last_due_us + 3e6;

  // Scenario state; touched only by the script's callbacks, which the
  // clock runs one at a time.
  std::size_t issued_count = 0;
  std::uint64_t polls = 0;
  double crash_us = -1, first_leave_us = -1, view_done_us = -1, end_us = -1;
  std::vector<double> suspected_us(sites, -1);
  std::vector<bool> leave_requested(sites, false);
  std::vector<ComputationHandle> leaves;
  bool finished = false;
  samoa::OneShotEvent done;

  const auto now_us = [&clock] {
    return std::chrono::duration<double, std::micro>(clock.now().time_since_epoch()).count();
  };

  net::TimerService script(&clock);  // declared after the fleet: stops first
  const auto finish = [&](double now) {
    if (finished) return;
    finished = true;
    end_us = now;
    fleet.stop_timers();
    script.cancel_all();
    done.set();
  };

  // Churn: suspicions are read at site 0, and each callback makes at most
  // one node API call (one request_leave), which keeps the run replayable.
  const auto churn_step = [&](double now) {
    auto& det = fleet.nodes[0]->detector();
    for (std::size_t v = survivors; v < sites; ++v) {
      if (suspected_us[v] < 0 && det.is_suspected(fleet.members[v])) suspected_us[v] = now;
    }
    for (std::size_t v = survivors; v < sites; ++v) {
      if (leave_requested[v] || suspected_us[v] < 0) continue;
      leave_requested[v] = true;
      if (first_leave_us < 0) first_leave_us = now;
      leaves.push_back(spans.span("request_leave", v, now, [&] {
        return fleet.nodes[0]->request_leave(fleet.members[v]);
      }));
      return;
    }
    if (view_done_us >= 0 || leaves.size() < static_cast<std::size_t>(cfg.crashes)) return;
    for (std::size_t i = 0; i < survivors; ++i) {
      const gc::View view = fleet.nodes[i]->membership().view_snapshot();
      for (std::size_t v = survivors; v < sites; ++v) {
        if (view.contains(fleet.members[v])) return;
      }
    }
    view_done_us = now;
  };

  r.threads_peak = threads_now();
  Usage u_begin;
  SteadyClock::time_point wall_begin;
  {
    // Freeze virtual time until every node started and every scripted
    // event is armed.
    time::Pin setup(clock);
    fleet.start();
    for (std::size_t m = 0; m < msgs; ++m) {
      script.schedule(microseconds(static_cast<long>(issued[m].due_us)), [&, m] {
        Issued& is = issued[m];
        is.call_us = now_us();
        r.lateness_us_max = std::max(r.lateness_us_max, is.call_us - is.due_us);
        const auto c0 = SteadyClock::now();
        is.handle = spans.span("abcast", m, is.call_us,
                               [&] { return fleet.nodes[is.origin]->abcast(payloads[m]); });
        r.abcast_call_us.push_back(us_between(c0, SteadyClock::now()));
        ++issued_count;
      });
    }
    for (std::size_t v = survivors; v < sites; ++v) {
      script.schedule(microseconds(static_cast<long>(crash_due_us)), [&, v] {
        const double now = now_us();
        spans.span("crash", v, now, [&] { fleet.nodes[v]->crash(); });
        obs.mark_crashed(v);
        crash_us = now;
      });
    }
    script.schedule_periodic(kVtPollInterval, [&] {
      const double now = now_us();
      spans.span("observe", polls, now, [&] { obs.poll(now); });
      if (++polls % 4096 == 0) r.threads_peak = std::max(r.threads_peak, threads_now());
      if (crash_us >= 0) churn_step(now);
      if (issued_count == msgs && obs.completed() == msgs && (cfg.crashes == 0 || view_done_us >= 0)) {
        finish(now);
      }
    });
    script.schedule(microseconds(static_cast<long>(horizon_us)), [&] { finish(now_us()); });
    u_begin = usage_now();
    wall_begin = SteadyClock::now();
  }
  done.wait();
  const auto wall_end = SteadyClock::now();
  const Usage u_end = usage_now();
  fleet.quiesce();

  r.attempted += leaves.size();
  std::uint64_t failed_leaves = 0;
  for (const auto& h : leaves) failed_leaves += h.failed() ? 1 : 0;
  fail(r, failed_leaves, "request_leave computation failed");
  std::uint64_t never_suspected = 0;
  for (std::size_t v = survivors; v < sites; ++v) never_suspected += suspected_us[v] < 0 ? 1 : 0;
  fail(r, never_suspected, "crashed site never suspected at site 0");
  if (cfg.crashes > 0 && view_done_us < 0) {
    fail(r, 1, "survivors never installed the view without the crashed sites");
  }
  fail(r, msgs - issued_count, "abcast not issued before the horizon");

  const std::vector<double> done_us = check_and_measure(fleet, obs, issued, 0, horizon_us + 1, r);
  collect_layers(fleet, obs, r.layers);
  double last_done = first_due_us;
  for (double d : done_us) last_done = std::max(last_done, d);
  Segment s = segment_between(u_begin, u_end, 0, r.layers.packets_sent);
  s.clock_s = (last_done - first_due_us) / 1e6;
  s.wall_s = r.wall_s = us_between(wall_begin, wall_end) / 1e6;
  s.deliveries = r.messages_delivered;
  r.segments.push_back(s);
  r.virtual_s = end_us / 1e6;

  if (cfg.crashes > 0 && crash_us >= 0) {
    double all_suspected = -1;
    for (std::size_t v = survivors; v < sites; ++v) all_suspected = std::max(all_suspected, suspected_us[v]);
    if (never_suspected == 0) r.detect_us.push_back(all_suspected - crash_us);
    if (view_done_us >= 0) {
      r.view_change_us.push_back(view_done_us - crash_us);
      r.evict_us.push_back(view_done_us - first_leave_us);
    }
    for (std::size_t m = 0; m < msgs; ++m) {
      if (issued[m].due_us >= crash_us) {
        if (done_us[m] >= 0) r.outage_us.push_back(done_us[m] - crash_us);
        break;
      }
    }
  }

  std::uint64_t fires = polls + issued_count + leaves.size() + static_cast<std::uint64_t>(cfg.crashes);
  for (std::size_t i = 0; i < sites; ++i) {
    fires += node_timer_fires(fleet.options, i < survivors || crash_us < 0 ? end_us : crash_us);
  }
  r.layers.timer_fires = fires;
  return r;
}

}  // namespace

void LayerCounts::add(const LayerCounts& o) {
  admissions += o.admissions;
  admit_slow += o.admit_slow;
  gate_waits += o.gate_waits;
  gate_wait_p50_ns_weighted += o.gate_wait_p50_ns_weighted;
  gate_waits_timed += o.gate_waits_timed;
  gate_wait_us_p99 = std::max(gate_wait_us_p99, o.gate_wait_us_p99);
  spawned += o.spawned;
  handler_calls += o.handler_calls;
  exec_dispatched += o.exec_dispatched;
  exec_batches += o.exec_batches;
  exec_enqueues += o.exec_enqueues;
  exec_overflow += o.exec_overflow;
  exec_handoffs += o.exec_handoffs;
  exec_wakeups += o.exec_wakeups;
  exec_queue_depth_p99 = std::max(exec_queue_depth_p99, o.exec_queue_depth_p99);
  retransmissions += o.retransmissions;
  flow_deferred += o.flow_deferred;
  rel_cast_broadcasts += o.rel_cast_broadcasts;
  instances_decided += o.instances_decided;
  ab_delivered_site0 += o.ab_delivered_site0;
  rounds_started += o.rounds_started;
  suspicions += o.suspicions;
  revocations += o.revocations;
  swim_piggybacked += o.swim_piggybacked;
  ticks_coalesced += o.ticks_coalesced;
  packets_sent += o.packets_sent;
  packets_dropped += o.packets_dropped;
  timer_fires += o.timer_fires;
}

void EpisodeResult::merge(const EpisodeResult& o) {
  const auto append = [](auto& into, const auto& from) { into.insert(into.end(), from.begin(), from.end()); };
  attempted += o.attempted;
  failed += o.failed;
  for (const auto& f : o.failures) {
    if (failures.size() < 8) failures.push_back(f);
  }
  vs_violations += o.vs_violations;
  append(segments, o.segments);
  append(latency_us, o.latency_us);
  append(origin_latency_us, o.origin_latency_us);
  append(abcast_call_us, o.abcast_call_us);
  lateness_us_max = std::max(lateness_us_max, o.lateness_us_max);
  wall_s += o.wall_s;
  virtual_s += o.virtual_s;
  threads_peak = std::max(threads_peak, o.threads_peak);
  messages_delivered += o.messages_delivered;
  layers.add(o.layers);
  append(detect_us, o.detect_us);
  append(evict_us, o.evict_us);
  append(view_change_us, o.view_change_us);
  append(outage_us, o.outage_us);
}

EpisodeResult run_workload(const WorkloadConfig& cfg, std::uint64_t seed, SpanRecorder& spans) {
  // Each episode's seed is derived from the run's; SplitMix64 spreads
  // neighbouring run seeds apart.
  SplitMix64 seeds(seed);
  EpisodeResult r;
  for (int e = 0; e < cfg.episodes; ++e) {
    const std::uint64_t s = seeds.next();
    r.merge(cfg.clock == ClockKind::kWall ? run_wall(cfg, s, spans) : run_virtual(cfg, s, spans));
  }
  return r;
}

std::vector<double> measure_setup_s(const WorkloadConfig& cfg, std::uint64_t seed, int reps) {
  std::vector<double> out;
  for (int rep = 0; rep < reps; ++rep) {
    std::optional<time::VirtualClock> vclock;
    if (cfg.clock == ClockKind::kVirtual) vclock.emplace();
    time::ClockSource* clock = vclock ? &*vclock : nullptr;
    const auto t0 = SteadyClock::now();
    Fleet fleet(cfg, seed + static_cast<std::uint64_t>(rep), clock);
    {
      std::optional<time::Pin> pin;
      if (clock != nullptr) pin.emplace(*clock);
      fleet.start();
    }
    out.push_back(us_between(t0, SteadyClock::now()) / 1e6);
    fleet.stop_timers();
    fleet.quiesce();
  }
  return out;
}

}  // namespace gcbench
