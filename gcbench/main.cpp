// gcbench — end-to-end benchmark of ordered delivery on GroupNode fleets.
//
//   gcbench --workload <wall-abcast|vt-abcast|vt-churn> --seed <n>
//           --seconds <s> --trace <0|1> [--trace-out <file>] [--sites <n>]
//
// Prints a readable table, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (see README.md). Exit status: 0 when the correctness gate
// passed, 1 when it failed, 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "probes.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace gcbench {
namespace {

using std::chrono::microseconds;

/// A run is a series of episodes, each on a fresh fleet, of about this
/// many wall seconds each on a 4-core host. Many short virtual-time
/// episodes let the median step over bursts of host noise; wall-clock
/// episodes are longer because their measured window is cut into
/// one-second buckets anyway.
constexpr double kWallEpisodeSeconds = 5;
constexpr double kVtEpisodeSeconds = 3.3;
/// Virtual-time workloads are sized in messages, so that wall time never
/// cuts them short and their protocol counts and virtual latencies are a
/// pure function of the seed; these rates size an episode to about
/// kVtEpisodeSeconds.
constexpr double kVtAbcastMsgsPerSecond = 20;
constexpr double kVtChurnMsgsPerSecond = 6;
constexpr int kMinMessages = 6;  // per episode
/// Fleet set-ups timed per run; setup_s is their median.
constexpr int kSetupReps = 21;

/// The workload `name` sized to run for about `seconds`.
bool make_config(const std::string& name, double seconds, WorkloadConfig& cfg) {
  cfg = WorkloadConfig{};
  cfg.name = name;
  const auto episodes = [&](double episode_s) {
    cfg.episodes = std::max(1, static_cast<int>(seconds / episode_s));
    return seconds / cfg.episodes;
  };
  if (name == "wall-abcast") {
    const double episode_s = episodes(kWallEpisodeSeconds);
    cfg.clock = ClockKind::kWall;
    cfg.sites = 5;
    cfg.base_latency = microseconds(50);
    cfg.outstanding = 1;
    cfg.seconds = episode_s;
    cfg.warmup_s = std::min(0.5, 0.1 * episode_s);
    return true;
  }
  if (name == "vt-abcast" || name == "vt-churn") {
    const bool churn = name == "vt-churn";
    const double episode_s = episodes(kVtEpisodeSeconds);
    cfg.clock = ClockKind::kVirtual;
    cfg.sites = churn ? 24 : 16;
    cfg.detector = churn ? samoa::gc::DetectorImpl::kSwim : samoa::gc::DetectorImpl::kHeartbeat;
    cfg.base_latency = microseconds(100);
    cfg.jitter = microseconds(200);  // 200 us +- 100 us
    cfg.drop_probability = churn ? 0.01 : 0.0;
    cfg.crashes = churn ? 3 : 0;
    const double per_second = churn ? kVtChurnMsgsPerSecond : kVtAbcastMsgsPerSecond;
    cfg.messages = std::max(kMinMessages, static_cast<int>(std::lround(episode_s * per_second)));
    return true;
  }
  return false;
}

/// Linear interpolation between closest ranks; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0;
}

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

/// Median over segments of a per-segment rate; segments with a zero
/// denominator are skipped.
template <class F>
double segment_median(const EpisodeResult& r, F&& rate) {
  std::vector<double> v;
  for (const Segment& s : r.segments) {
    if (const auto x = rate(s); x) v.push_back(*x);
  }
  return quantile(std::move(v), 0.5);
}

std::optional<double> per(double a, double b) { return b > 0 ? std::optional(a / b) : std::nullopt; }

/// Throughput on the workload's own clock is pooled over the run; CPU per
/// delivery, which host noise moves, is a median over segments. The
/// simulation's speed in wall time is per-layer only: on a shared host it
/// follows the hypervisor (see README.md). The latency tail is p90: the
/// highest percentile with at least ten samples beyond it in every run.
Metrics end_to_end(const EpisodeResult& r, double setup_s) {
  std::uint64_t deliveries = 0, packets = 0;
  double clock_s = 0;
  for (const Segment& s : r.segments) {
    deliveries += s.deliveries;
    packets += s.packets;
    clock_s += s.clock_s;
  }
  Metrics m;
  m["deliveries_per_s"] = {ratio(static_cast<double>(deliveries), clock_s), "1/s"};
  m["latency_p50_us"] = {quantile(r.latency_us, 0.5), "us"};
  m["latency_p90_us"] = {quantile(r.latency_us, 0.9), "us"};
  m["packets_per_delivery"] = {ratio(static_cast<double>(packets), static_cast<double>(deliveries)), "packets"};
  m["cpu_ms_per_delivery"] = {segment_median(r, [](const Segment& s) {
                                return per((s.cpu_user_s + s.cpu_sys_s) * 1e3, s.deliveries);
                              }), "ms"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  m["setup_s"] = {setup_s, "s"};
  return m;
}

Metrics per_layer(const WorkloadConfig& cfg, const EpisodeResult& r, const ProbeResults& p,
                  double overhead) {
  const LayerCounts& l = r.layers;
  const double dm = static_cast<double>(r.messages_delivered);
  const auto per_msg = [dm](std::uint64_t c) { return ratio(static_cast<double>(c), dm); };
  double cpu_s = 0, sys_s = 0, seg_wall_s = 0;
  std::uint64_t deliveries = 0, ctx = 0;
  for (const Segment& s : r.segments) {
    cpu_s += s.cpu_user_s + s.cpu_sys_s;
    sys_s += s.cpu_sys_s;
    seg_wall_s += s.wall_s;
    deliveries += s.deliveries;
    ctx += s.vol_ctx_switches;
  }
  const double clock_s = cfg.clock == ClockKind::kVirtual ? r.virtual_s : r.wall_s;
  const auto median_or_0 = [](const std::vector<double>& v) { return quantile(v, 0.5); };
  Metrics m;
  m["cc.gate_wait_ratio"] = {ratio(l.gate_waits, l.admissions), "ratio"};
  m["cc.gate_wait_us_p50"] = {ratio(l.gate_wait_p50_ns_weighted / 1e3, l.gate_waits_timed), "us"};
  m["cc.gate_wait_us_p99"] = {l.gate_wait_us_p99, "us"};
  m["cc.admit_slow_ratio"] = {ratio(l.admit_slow, l.admissions), "ratio"};
  m["cc.admissions_per_delivery"] = {per_msg(l.admissions), "count"};
  m["core.runtime.spawned_per_delivery"] = {per_msg(l.spawned), "count"};
  m["core.runtime.handler_calls_per_delivery"] = {per_msg(l.handler_calls), "count"};
  m["core.executor.batch_size_mean"] = {ratio(l.exec_dispatched, l.exec_batches), "count"};
  m["core.executor.queue_depth_p99"] = {l.exec_queue_depth_p99, "count"};
  m["core.executor.handoffs_per_dispatch"] = {ratio(l.exec_handoffs, l.exec_dispatched), "ratio"};
  m["core.executor.wakeups_per_dispatch"] = {ratio(l.exec_wakeups, l.exec_dispatched), "ratio"};
  m["core.executor.overflow_ratio"] = {ratio(l.exec_overflow, l.exec_enqueues), "ratio"};
  m["time.vclock.us_per_timer_fire"] = {p.timer_us_per_fire, "us"};
  m["time.virtual_s_per_wall_s"] = {cfg.clock == ClockKind::kVirtual ? ratio(r.virtual_s, r.wall_s) : 1.0, "ratio"};
  m["time.timer_fires_per_delivery"] = {per_msg(l.timer_fires), "count"};
  m["time.sim_deliveries_per_wall_s"] = {
      segment_median(r, [](const Segment& s) { return per(s.deliveries, s.wall_s); }), "1/s"};
  m["time.wall_us_per_sim_packet"] = {
      segment_median(r, [](const Segment& s) { return per(s.wall_s * 1e6, s.packets); }), "us"};
  m["time.cpu_us_per_sim_packet"] = {segment_median(r, [](const Segment& s) {
                                       return per((s.cpu_user_s + s.cpu_sys_s) * 1e6, s.packets);
                                     }), "us"};
  m["proc.threads_peak"] = {static_cast<double>(r.threads_peak), "count"};
  m["proc.vol_ctx_switches_per_delivery"] = {ratio(ctx, deliveries), "count"};
  m["proc.sys_cpu_share"] = {ratio(sys_s, cpu_s), "ratio"};
  m["net.sim_network.us_per_packet_probe"] = {p.net_us_per_packet, "us"};
  m["net.drop_ratio"] = {ratio(l.packets_dropped, l.packets_sent), "ratio"};
  m["net.codec.encode_ns"] = {p.encode_ns, "ns"};
  m["net.codec.decode_ns"] = {p.decode_ns, "ns"};
  m["net.codec.bytes_rcdata"] = {static_cast<double>(p.bytes_rcdata), "bytes"};
  m["gc.rel_comm.retransmissions_per_delivery"] = {per_msg(l.retransmissions), "count"};
  m["gc.rel_comm.flow_deferred_per_delivery"] = {per_msg(l.flow_deferred), "count"};
  m["gc.rel_cast.broadcasts_per_delivery"] = {per_msg(l.rel_cast_broadcasts), "count"};
  m["gc.abcast.msgs_per_instance"] = {ratio(l.ab_delivered_site0, l.instances_decided), "count"};
  m["gc.consensus.rounds_per_instance"] = {ratio(l.rounds_started, l.instances_decided), "count"};
  m["gc.origin_latency_p50_us"] = {quantile(r.origin_latency_us, 0.5), "us"};
  m["gc.api.abcast_call_us_p50"] = {quantile(r.abcast_call_us, 0.5), "us"};
  m["gc.api.abcast_call_us_p99"] = {quantile(r.abcast_call_us, 0.99), "us"};
  m["gc.detect_us"] = {median_or_0(r.detect_us), "us"};
  m["gc.membership.evict_us"] = {median_or_0(r.evict_us), "us"};
  m["gc.view_change_us"] = {median_or_0(r.view_change_us), "us"};
  m["gc.outage_us"] = {median_or_0(r.outage_us), "us"};
  m["gc.detector.suspicions"] = {static_cast<double>(l.suspicions), "count"};
  m["gc.detector.revocations"] = {static_cast<double>(l.revocations), "count"};
  m["gc.swim.piggybacked_per_s"] = {ratio(static_cast<double>(l.swim_piggybacked), clock_s), "1/s"};
  m["gc.group_node.ticks_coalesced"] = {static_cast<double>(l.ticks_coalesced), "count"};
  m["verify.vs_violations"] = {static_cast<double>(r.vs_violations), "count"};
  m["verify.failed_ratio"] = {ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)), "ratio"};
  m["gen.lateness_us_max"] = {r.lateness_us_max, "us"};

  // Attribution: probe cost x the episode's count of that operation, as a
  // share of the cost of one delivery — wall time under virtual time (the
  // simulation is what the user waits for), CPU time on the wall clock
  // (where wall time is mostly link delay).
  const double base_us = cfg.clock == ClockKind::kVirtual ? ratio(seg_wall_s * 1e6, deliveries)
                                                          : ratio(cpu_s * 1e6, deliveries);
  const double net = ratio(p.net_us_per_packet * per_msg(l.packets_sent), base_us);
  const double timer = ratio(p.timer_us_per_fire * per_msg(l.timer_fires), base_us);
  const double runtime = ratio(p.spawn_us * per_msg(l.spawned), base_us);
  m["attr.net_share"] = {net, "ratio"};
  m["attr.timer_share"] = {timer, "ratio"};
  m["attr.runtime_share"] = {runtime, "ratio"};
  m["attr.unattributed_share"] = {1.0 - net - timer - runtime, "ratio"};
  m["attr.codec_share_if_marshalled"] = {
      ratio((p.encode_ns + p.decode_ns) / 1e3 * per_msg(l.packets_sent), base_us), "ratio"};
  m["trace.overhead_ratio"] = {overhead, "ratio"};
  return m;
}

void print_table(const std::string& title, const Metrics& m) {
  std::printf("%s\n", title.c_str());
  for (const auto& [name, metric] : m) {
    std::printf("  %-44s %16.6g %s\n", name.c_str(), metric.value, metric.unit);
  }
}

void print_json(std::uint64_t attempted, std::uint64_t failed, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : m) {
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(), v,
                metric.unit);
    first = false;
  }
  std::printf("}}\n");
}

void report_failures(const char* what, const EpisodeResult& r) {
  for (const auto& f : r.failures) std::fprintf(stderr, "gcbench: %s: FAILED: %s\n", what, f.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: gcbench --workload <wall-abcast|vt-abcast|vt-churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] [--sites <n>]\n");
  return 2;
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args{{"--seed", "1"}, {"--seconds", "10"}, {"--trace", "0"}};
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0 || !args.contains("--workload")) return usage();
  const std::uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const double seconds = std::atof(args["--seconds"].c_str());
  const bool traced = args["--trace"] == "1";
  WorkloadConfig cfg;
  if (seconds <= 0 || !make_config(args["--workload"], seconds, cfg)) return usage();
  if (args.contains("--sites")) {
    // Fleet-size override for sweeps by hand; run.py never passes it.
    cfg.sites = std::atoi(args["--sites"].c_str());
    if (cfg.sites < cfg.crashes + 2) return usage();
  }

  if (!traced) {
    SpanRecorder off(false);
    const std::vector<double> setups = measure_setup_s(cfg, seed, kSetupReps);
    const EpisodeResult r = run_workload(cfg, seed, off);
    report_failures(cfg.name.c_str(), r);
    const Metrics m = end_to_end(r, quantile(setups, 0.5));
    print_table(cfg.name + " seed " + std::to_string(seed) + ": end-to-end (" +
                    std::to_string(r.latency_us.size()) + " latency samples, " +
                    std::to_string(r.segments.size()) + " segments)",
                m);
    print_json(r.attempted, r.failed, m);
    return r.failed == 0 ? 0 : 1;
  }

  // Traced run: the workload at half size twice, untraced then traced, so
  // the difference is the tracing overhead; per-layer numbers come from
  // the traced half, then the probes run.
  WorkloadConfig half;
  make_config(cfg.name, seconds / 2, half);
  half.sites = cfg.sites;
  SpanRecorder off(false), on(true);
  const EpisodeResult plain = run_workload(half, seed, off);
  const EpisodeResult r = run_workload(half, seed, on);
  report_failures((cfg.name + " (untraced half)").c_str(), plain);
  report_failures((cfg.name + " (traced half)").c_str(), r);
  const auto throughput = [](const EpisodeResult& e) {
    return segment_median(e, [](const Segment& s) { return per(s.deliveries, s.wall_s); });
  };
  const double overhead = cfg.clock == ClockKind::kVirtual ? ratio(r.wall_s, plain.wall_s) - 1.0
                                                           : ratio(throughput(plain), throughput(r)) - 1.0;
  const auto batch = static_cast<std::size_t>(
      std::max(1.0, std::round(ratio(r.layers.ab_delivered_site0, r.layers.instances_decided))));
  const ProbeResults probes = run_probes(half, batch, on);
  const Metrics m = per_layer(half, r, probes, overhead);
  print_table(cfg.name + " seed " + std::to_string(seed) + ": per-layer (" +
                  std::to_string(on.size()) + " spans)",
              m);
  if (args.contains("--trace-out") && !on.write_chrome_json(args["--trace-out"])) {
    std::fprintf(stderr, "gcbench: cannot write %s\n", args["--trace-out"].c_str());
  }
  const std::uint64_t attempted = plain.attempted + r.attempted;
  const std::uint64_t failed = plain.failed + r.failed;
  print_json(attempted, failed, m);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace gcbench

int main(int argc, char** argv) { return gcbench::run(argc, argv); }
