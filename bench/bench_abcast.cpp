// E4 — the paper's Section 7 experiment: the Atomic Broadcast protocol
// expressed in the framework, "variants of the concurrency control with a
// different grain of concurrent execution".
//
// N sites on the simulated network; a burst of abcasts is submitted and we
// measure time-to-total-order (all sites delivered everything) plus mean
// per-message delivery latency, for each per-site controller:
//   serial        one computation at a time per site (Appia-like)
//   VCAbasic      per-declaration versioning (the paper's default)
//   VCAbound      generous bounds (same declarations, windowed gates)
//   VCAroute      inferred routing patterns (early release, Rule 4(b))
//   unsync+locks  Cactus-style manual synchronisation baseline
//
// Besides the table, every (sites, controller) run prints one
// `BENCH {json}` line, the format bench_viewchange uses.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "diag/watchdog.hpp"
#include "gc/group_node.hpp"

namespace samoa::bench {
namespace {

using namespace samoa::gc;
using net::LinkOptions;
using net::SimNetwork;

struct Result {
  double makespan_ns = -1;  // -1: did not converge
  std::uint64_t packets = 0;
};

Result run_abcast(CCPolicy policy, bool manual_locks, int sites, int messages,
                  std::chrono::microseconds link_latency) {
  GcOptions opts;
  opts.policy = policy;
  opts.manual_locks = manual_locks;
  // Calm the periodic machinery: on the single-core CI host the default
  // (aggressive) timers flood the run with heartbeats and spurious
  // consensus retries that measure the scheduler, not the controllers.
  opts.heartbeat_interval = std::chrono::microseconds(50'000);
  opts.fd_timeout = std::chrono::microseconds(500'000);
  opts.retransmit_interval = std::chrono::microseconds(10'000);
  opts.retransmit_timeout = std::chrono::microseconds(20'000);
  opts.cs_retry_interval = std::chrono::microseconds(200'000);
  opts.cs_retry_timeout = std::chrono::microseconds(400'000);
  SimNetwork net(LinkOptions{.base_latency = link_latency}, /*seed=*/7);
  std::vector<std::unique_ptr<GroupNode>> nodes;
  for (int i = 0; i < sites; ++i) nodes.push_back(std::make_unique<GroupNode>(net, opts));
  std::vector<SiteId> members;
  for (auto& n : nodes) members.push_back(n->id());
  for (auto& n : nodes) n->start(View(1, members));

  const auto start = Clock::now();
  for (int m = 0; m < messages; ++m) {
    nodes[m % sites]->abcast("msg" + std::to_string(m));
  }
  const auto deadline = start + std::chrono::seconds(30);
  bool converged = false;
  while (Clock::now() < deadline) {
    converged = true;
    for (auto& n : nodes) {
      if (n->sink().adelivered().size() != static_cast<std::size_t>(messages)) {
        converged = false;
        break;
      }
    }
    if (converged) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Result res;
  if (converged) res.makespan_ns = ns_since(start);
  res.packets = net.stats().sent.value();
  for (auto& n : nodes) n->stop_timers();
  return res;
}

std::string cell(const Result& r, int messages) {
  if (r.makespan_ns < 0) return "DNF";
  const double per_msg = r.makespan_ns / messages;
  return format_duration_ns(r.makespan_ns) + " (" + format_duration_ns(per_msg) + "/msg)";
}

void print_bench(int sites, const char* controller, const Result& r, int messages) {
  std::printf("BENCH {\"bench\":\"abcast\",\"sites\":%d,\"controller\":\"%s\","
              "\"messages\":%d,\"converged\":%s,\"makespan_us\":%.1f,\"packets\":%llu}\n",
              sites, controller, messages, r.makespan_ns < 0 ? "false" : "true",
              r.makespan_ns < 0 ? -1.0 : r.makespan_ns / 1000.0,
              static_cast<unsigned long long>(r.packets));
}

}  // namespace
}  // namespace samoa::bench

int main() {
  samoa::diag::install_env_watchdog("bench_abcast");
  using namespace samoa;
  using namespace samoa::bench;

  constexpr int kMessages = 20;
  constexpr auto kLatency = std::chrono::microseconds(200);
  std::printf(
      "E4: Atomic Broadcast on the simulated network (%d messages, %lldus links),\n"
      "per-site concurrency control varied (paper Section 7).\n",
      kMessages, static_cast<long long>(kLatency.count()));

  struct Controller {
    const char* name;
    CCPolicy policy;
    bool manual_locks;
  };
  const Controller controllers[] = {{"serial", CCPolicy::kSerial, false},
                                    {"VCAbasic", CCPolicy::kVCABasic, false},
                                    {"VCAbound", CCPolicy::kVCABound, false},
                                    {"VCAroute", CCPolicy::kVCARoute, false},
                                    {"unsync+manual-locks", CCPolicy::kUnsync, true}};
  Table table({"sites", "serial", "VCAbasic", "VCAbound", "VCAroute", "unsync+manual-locks"});
  for (int sites : {3, 5, 7}) {
    std::vector<std::string> row{std::to_string(sites)};
    for (const auto& c : controllers) {
      const auto r = run_abcast(c.policy, c.manual_locks, sites, kMessages, kLatency);
      print_bench(sites, c.name, r, kMessages);
      row.push_back(cell(r, kMessages));
    }
    table.add_row(std::move(row));
  }
  table.print("Time to total order (all sites delivered every message)");

  std::printf(
      "\nExpected shape: all controllers converge, and the versioned\n"
      "controllers track the hand-locked baseline within a small factor —\n"
      "the paper's Section 7 claim that the concurrency-control overhead is\n"
      "relatively low. Serial is competitive on this workload because the\n"
      "abcast data path is inherently sequential per site; its cost appears\n"
      "when computations could overlap (bench_scaling, bench_bound,\n"
      "bench_route quantify exactly that).\n");
  return 0;
}
