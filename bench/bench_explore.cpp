// Schedule-exploration sweep (E-EXPLORE + E-EXPLORE-NET) — the numbers
// behind the EXPERIMENTS.md entries and the nightly CI job.
//
// Part 1 (E-EXPLORE) runs the standard conflicting cell (4 computations x
// 3 triggers over a 3-mp stack with a shared hotspot) under every
// controller policy and every exploration strategy, and reports per cell:
// schedules executed, decision points by kind (s=step, n=network), wall
// cost, and — when a violation is found — the trace sizes before and after
// shrinking.
//
// Part 2 (E-EXPLORE-NET) runs the whole-fleet network cells: the toy
// view-sync fleet (3 members, 3 relays, rotating relay assignment) under
// random-walk and PCT exploration of SimNetwork delivery order, with
// vs_checker as the oracle and fault-timing controls in the decision mix.
//
// The sanity gates double as the exit code: kUnsync must be flagged
// non-isolated by every strategy within the budget and the isolating
// policies must stay clean; vs-unsync must be flagged by every network
// strategy while vs-synced stays clean and the default (deliver_at, seq)
// order never violates.
//
// Usage: bench_explore [max_schedules] [seed]   (defaults 64, 42)
// Honors SAMOA_EXPLORE_SCHEDULES (budget multiplier) and
// SAMOA_EXPLORE_DUMP_DIR (shrunk-trace dumps) like the tests do.
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "diag/watchdog.hpp"
#include "explore/net_runner.hpp"
#include "explore/runner.hpp"

int main(int argc, char** argv) {
  samoa::diag::install_env_watchdog("bench_explore");
  using namespace samoa;
  using namespace samoa::explore;

  CellOptions base;
  base.max_schedules =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : std::size_t{64};
  base.seed = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 42;

  const std::vector<CCPolicy> policies{CCPolicy::kSerial,   CCPolicy::kUnsync,
                                       CCPolicy::kVCABasic, CCPolicy::kVCABound,
                                       CCPolicy::kVCARoute, CCPolicy::kVCARW,
                                       CCPolicy::kTSO};
  const std::vector<StrategyKind> strategies{StrategyKind::kRandomWalk, StrategyKind::kPct,
                                             StrategyKind::kExhaustive};

  std::printf("E-EXPLORE — schedule exploration, %d policies x %d strategies, budget %zu "
              "schedules/cell (x SAMOA_EXPLORE_SCHEDULES), workload seed %llu\n\n",
              static_cast<int>(policies.size()), static_cast<int>(strategies.size()),
              base.max_schedules, static_cast<unsigned long long>(base.seed));
  std::printf("%-10s %-11s %10s %-18s %9s %9s  %s\n", "policy", "strategy", "schedules",
              "decisions", "wall-ms", "us/sched", "verdict");

  bool unsync_flagged_by_all = true;
  bool isolating_clean = true;
  for (StrategyKind strategy : strategies) {
    bool unsync_flagged = false;
    for (CCPolicy policy : policies) {
      CellOptions opts = base;
      opts.policy = policy;
      opts.strategy = strategy;
      const auto start = Clock::now();
      const CellResult r = explore_cell(opts);
      const double wall_ms = bench::ns_since(start) / 1e6;
      const double us_per = r.schedules_run == 0
                                ? 0.0
                                : wall_ms * 1e3 / static_cast<double>(r.schedules_run);

      char verdict[128];
      if (r.violation_found) {
        std::snprintf(verdict, sizeof(verdict), "VIOLATION (trace %zu -> shrunk %zu)",
                      r.first_violation.size(), r.shrunk.size());
      } else {
        std::snprintf(verdict, sizeof(verdict), "clean");
      }
      std::printf("%-10s %-11s %10zu %-18s %9.1f %9.1f  %s\n", to_string(policy),
                  to_string(strategy), r.schedules_run, r.decisions.summary().c_str(), wall_ms,
                  us_per, verdict);

      if (policy == CCPolicy::kUnsync) {
        unsync_flagged = r.violation_found;
      } else if (r.violation_found) {
        isolating_clean = false;
        std::printf("  !! %s should be isolated; repro:\n%s\n", to_string(policy),
                    r.repro.c_str());
      }
    }
    if (!unsync_flagged) {
      unsync_flagged_by_all = false;
      std::printf("  !! %s failed to flag kUnsync within the budget\n", to_string(strategy));
    }
    std::printf("\n");
  }

  // --- Part 2: whole-fleet network cells (E-EXPLORE-NET) ------------------
  NetCellOptions net_base;
  net_base.max_schedules = base.max_schedules;
  net_base.seed = base.seed;
  net_base.views = 2;

  const std::vector<NetProtocol> protocols{NetProtocol::kSynced, NetProtocol::kUnsync};
  const std::vector<StrategyKind> net_strategies{StrategyKind::kRandomWalk, StrategyKind::kPct};

  std::printf("E-EXPLORE-NET — SimNetwork delivery-order exploration, toy view-sync fleet "
              "(3 members, 3 relays, %d epoch(s)), vs_checker oracle\n\n",
              net_base.views > 1 ? net_base.views - 1 : 1);
  std::printf("%-10s %-11s %-6s %10s %-18s %9s  %s\n", "protocol", "strategy", "faults",
              "schedules", "decisions", "wall-ms", "verdict");

  bool net_unsync_flagged_by_all = true;
  bool net_synced_clean = true;
  bool net_default_clean = true;
  for (StrategyKind strategy : net_strategies) {
    bool unsync_flagged = false;
    for (NetProtocol protocol : protocols) {
      for (bool faults : {false, true}) {
        NetCellOptions opts = net_base;
        opts.protocol = protocol;
        opts.strategy = strategy;
        opts.with_faults = faults;
        const auto start = Clock::now();
        const NetCellResult r = explore_net_cell(opts);
        const double wall_ms = bench::ns_since(start) / 1e6;

        char verdict[128];
        if (r.violation_found) {
          std::snprintf(verdict, sizeof(verdict), "VIOLATION (trace %zu -> shrunk %zu)",
                        r.first_violation.size(), r.shrunk.size());
        } else {
          std::snprintf(verdict, sizeof(verdict), "clean");
        }
        std::printf("%-10s %-11s %-6s %10zu %-18s %9.1f  %s\n", to_string(protocol),
                    to_string(strategy), faults ? "on" : "off", r.schedules_run,
                    r.decisions.summary().c_str(), wall_ms, verdict);

        if (protocol == NetProtocol::kUnsync) {
          unsync_flagged = unsync_flagged || r.violation_found;
        } else if (r.violation_found) {
          net_synced_clean = false;
          std::printf("  !! vs-synced should hold under every interleaving; repro:\n%s\n",
                      r.repro.c_str());
        }
      }
    }
    if (!unsync_flagged) {
      net_unsync_flagged_by_all = false;
      std::printf("  !! %s failed to flag vs-unsync within the budget\n", to_string(strategy));
    }
    std::printf("\n");
  }

  // Default (deliver_at, seq) order: the seeded bug is invisible without
  // exploration — data is seeded before views and FIFO keeps it that way.
  for (NetProtocol protocol : protocols) {
    for (bool faults : {false, true}) {
      NetCellOptions opts = net_base;
      opts.protocol = protocol;
      opts.with_faults = faults;
      const NetRunResult r = run_net_schedule(opts, nullptr);
      if (r.violated) {
        net_default_clean = false;
        std::printf("  !! default order violated %s (faults %s): %s\n", to_string(protocol),
                    faults ? "on" : "off", r.violation_summary.c_str());
      }
    }
  }

  std::printf("sanity gate: unsync flagged by all strategies = %s, isolating policies clean = %s, "
              "vs-unsync flagged by all net strategies = %s, vs-synced clean = %s, "
              "default net order clean = %s\n",
              unsync_flagged_by_all ? "yes" : "NO", isolating_clean ? "yes" : "NO",
              net_unsync_flagged_by_all ? "yes" : "NO", net_synced_clean ? "yes" : "NO",
              net_default_clean ? "yes" : "NO");
  return (unsync_flagged_by_all && isolating_clean && net_unsync_flagged_by_all &&
          net_synced_clean && net_default_clean)
             ? 0
             : 1;
}
