// The three fleet workloads and what one episode of each measures.
//
// An episode builds a fleet of real gc::GroupNode sites on one SimNetwork,
// drives it with generated abcast() calls, observes deliveries by polling
// each site's public ABcast delivery counter, checks the outcome, and
// returns raw measurements. Everything is read through the program's public
// API; see README.md for the workloads and their metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "gc/gc_options.hpp"
#include "spans.hpp"

namespace gcbench {

enum class ClockKind { kWall, kVirtual };

/// Every workload's application payload size.
constexpr std::size_t kPayloadBytes = 64;
/// Open-loop offered load of the virtual-time workloads, per virtual second.
constexpr double kVtRatePerS = 2000;
/// Virtual-time delivery observation period: fine against the 100-300 us
/// link delays, so latency percentiles differ between seeds.
constexpr std::chrono::microseconds kVtPollInterval{5};

struct WorkloadConfig {
  std::string name;
  ClockKind clock = ClockKind::kWall;
  int sites = 5;
  samoa::gc::DetectorImpl detector = samoa::gc::DetectorImpl::kHeartbeat;
  std::chrono::microseconds base_latency{50};
  std::chrono::microseconds jitter{0};  // uniform extra in [0, jitter]
  double drop_probability = 0.0;
  /// Sites crashed together (the last `crashes` sites) after a third of
  /// the traffic was issued; 0 = no faults.
  int crashes = 0;
  /// A run is `episodes` episodes, each on a fresh fleet with inputs from
  /// its own seed.
  int episodes = 1;
  /// Wall clock: closed loop with this many messages outstanding, each
  /// episode measured for `seconds` (the first `warmup_s` not measured).
  int outstanding = 1;
  double seconds = 10;
  double warmup_s = 1;
  /// Virtual time: open loop at kVtRatePerS, `messages` per episode.
  int messages = 0;
};

/// Counters summed over every site of the fleet, read from the public stats
/// getters each layer exposes, at the end of the episode.
struct LayerCounts {
  // cc
  std::uint64_t admissions = 0, admit_slow = 0, gate_waits = 0;
  // Per-site histograms cannot be merged from outside: the fleet's p50 is
  // the wait-count-weighted mean of the sites' p50s, its p99 their max.
  double gate_wait_p50_ns_weighted = 0;
  std::uint64_t gate_waits_timed = 0;
  double gate_wait_us_p99 = 0;
  // core
  std::uint64_t spawned = 0, handler_calls = 0;
  std::uint64_t exec_dispatched = 0, exec_batches = 0, exec_enqueues = 0, exec_overflow = 0,
                exec_handoffs = 0, exec_wakeups = 0;
  double exec_queue_depth_p99 = 0;
  // gc
  std::uint64_t retransmissions = 0, flow_deferred = 0, rel_cast_broadcasts = 0;
  std::uint64_t instances_decided = 0;  // at site 0
  std::uint64_t ab_delivered_site0 = 0;  // incl. membership ops
  std::uint64_t rounds_started = 0;
  std::uint64_t suspicions = 0, revocations = 0;  // over survivors
  std::uint64_t swim_piggybacked = 0;
  std::uint64_t ticks_coalesced = 0;
  // net
  std::uint64_t packets_sent = 0, packets_dropped = 0;
  // time: estimated TimerService firings (node periodic timers + harness)
  std::uint64_t timer_fires = 0;

  /// Fold another fleet's counters into these.
  void add(const LayerCounts& o);
};

/// One measured stretch of an episode: a bucket of the wall-clock window,
/// or a whole virtual-time episode. Rates are reported as medians over
/// segments, so a burst of host noise moves one segment, not the result.
struct Segment {
  double clock_s = 0;  // on the workload's own clock
  double wall_s = 0;
  std::uint64_t deliveries = 0;  // messages completed inside the segment
  std::uint64_t packets = 0;     // packets sent inside the segment
  double cpu_user_s = 0, cpu_sys_s = 0;
  std::uint64_t vol_ctx_switches = 0;
};

struct EpisodeResult {
  // Correctness gate.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  std::uint64_t vs_violations = 0;

  std::vector<Segment> segments;
  std::vector<double> latency_us;         // due time -> delivery at the last live site
  std::vector<double> origin_latency_us;  // due time -> delivery at the origin site
  std::vector<double> abcast_call_us;     // wall time inside abcast()
  double lateness_us_max = 0;             // open loop: call time minus due time

  double wall_s = 0;     // whole episode
  double virtual_s = 0;  // 0 on the wall clock
  std::uint64_t threads_peak = 0;
  std::uint64_t messages_delivered = 0;  // issued messages delivered at every live site
  LayerCounts layers;

  // Churn, one sample per crash episode (virtual time, crashes > 0).
  std::vector<double> detect_us;       // crash -> every crashed site suspected at site 0
  std::vector<double> evict_us;        // first request_leave -> every survivor installed the view
  std::vector<double> view_change_us;  // crash -> every survivor installed the view
  std::vector<double> outage_us;       // crash -> first message issued after it delivered everywhere

  /// Fold another episode's results into this one.
  void merge(const EpisodeResult& o);
};

/// Run `cfg`'s episodes with inputs generated from `seed`, merged. Spans are recorded into
/// `spans` when it is enabled.
EpisodeResult run_workload(const WorkloadConfig& cfg, std::uint64_t seed, SpanRecorder& spans);

/// Build and start a fleet of `cfg` `reps` times, tearing each down again;
/// returns the wall seconds each set-up took.
std::vector<double> measure_setup_s(const WorkloadConfig& cfg, std::uint64_t seed, int reps);

}  // namespace gcbench
