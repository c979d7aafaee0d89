// Strategy x protocol sweep of the network-schedule explorer — the
// distributed half of the exploration gate. Within a bounded schedule
// budget, random-walk and PCT-k exploration of SimNetwork delivery order
// must expose the unsynchronised view-installation protocol as a
// virtual-synchrony violation (vs_checker rule 1: the same message
// delivered in different views on different members), with a shrunk,
// replayable counterexample — while the default (deliver_at, seq) order
// never hits it, and the synchronised protocol stays clean over the whole
// explored matrix, fault-timing decisions included.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "explore/net_runner.hpp"
#include "explore/runner.hpp"
#include "explore/trace.hpp"
#include "test_support.hpp"

namespace samoa::explore {
namespace {

NetCellOptions gate_cell(NetProtocol protocol, StrategyKind strategy) {
  NetCellOptions o;
  o.protocol = protocol;
  o.strategy = strategy;
  o.seed = samoa::testing::test_seed(42);
  o.members = 3;
  o.relays = 3;
  o.views = 2;  // one epoch: keeps violating traces (and their shrinks) small
  o.max_schedules = 40;
  return o;
}

TEST(ExploreNetSweep, RandomWalkFlagsUnsyncWithShrunkCounterexample) {
  const NetCellResult res = explore_net_cell(gate_cell(NetProtocol::kUnsync, StrategyKind::kRandomWalk));
  ASSERT_TRUE(res.violation_found)
      << "random walk never violated vs-unsync within " << res.schedules_run
      << " schedules (seed " << res.options.seed << ")";
  EXPECT_FALSE(res.violation_summary.empty());
  EXPECT_LE(res.shrunk.size(), res.first_violation.size());
  ASSERT_FALSE(res.shrunk.empty()) << "the natural network schedule should not violate";
  // Regression pin: the counterexample stays small. The violation needs
  // only a handful of relay-race inversions; the shrinker lands at 3-4
  // decisions, so 8 is generous without letting quality regress silently.
  EXPECT_LE(res.shrunk.size(), 8u) << res.shrunk.encode();
  EXPECT_NE(res.repro.find(res.shrunk.encode()), std::string::npos)
      << "repro snippet must embed the shrunk trace";
  // Every explored decision in a net cell is a network decision.
  EXPECT_GT(res.decisions.n, 0u);
  EXPECT_EQ(res.decisions.s, 0u);
  EXPECT_EQ(res.decisions.total(), res.decisions.n);

  // The shrunk counterexample replays as a standalone repro: same seeded
  // fleet, forced decisions, violation reproduced, no divergence.
  const NetRunResult replay = replay_net_schedule(res.options, res.shrunk);
  EXPECT_FALSE(replay.replay_diverged) << res.shrunk.encode();
  EXPECT_TRUE(replay.violated) << res.shrunk.encode();
}

TEST(ExploreNetSweep, ReproSnippetTraceSurvivesTextRoundtrip) {
  const NetCellResult res = explore_net_cell(gate_cell(NetProtocol::kUnsync, StrategyKind::kRandomWalk));
  ASSERT_TRUE(res.violation_found);
  const ScheduleTrace decoded = ScheduleTrace::decode(res.shrunk.encode());
  const NetRunResult replay = replay_net_schedule(res.options, decoded);
  EXPECT_TRUE(replay.violated);
  EXPECT_FALSE(replay.replay_diverged);
}

TEST(ExploreNetSweep, PctFlagsUnsync) {
  NetCellOptions o = gate_cell(NetProtocol::kUnsync, StrategyKind::kPct);
  o.max_schedules = 100;
  o.pct_k = 3;
  const NetCellResult res = explore_net_cell(o);
  EXPECT_TRUE(res.violation_found)
      << "PCT never violated vs-unsync within " << res.schedules_run << " schedules (seed "
      << res.options.seed << ")";
}

TEST(ExploreNetSweep, DefaultDeliveryOrderNeverHitsTheViolation) {
  // The seeded bug needs a relay-race inversion the (deliver_at, seq)
  // merge can't produce: the coordinator seeds data before views and FIFO
  // preserves that through every lane. Several seeds, both fault modes.
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1337ull}) {
    for (bool faults : {false, true}) {
      NetCellOptions o = gate_cell(NetProtocol::kUnsync, StrategyKind::kFirst);
      o.seed = seed;
      o.with_faults = faults;
      const NetRunResult r = run_net_schedule(o, nullptr);
      EXPECT_FALSE(r.violated) << "seed " << seed << " faults " << faults << ": "
                               << r.violation_summary;
      EXPECT_TRUE(r.executed.empty());
    }
  }
}

TEST(ExploreNetSweep, SyncedProtocolStaysCleanAcrossTheExploredMatrix) {
  // The other half of the gate: with the synchronisation barrier in
  // place, every explored interleaving — fault-timing decisions included
  // — yields a clean vs_checker report, and clean cells exhaust their
  // whole budget with real 'n' decisions explored.
  NetCellOptions base = gate_cell(NetProtocol::kSynced, StrategyKind::kRandomWalk);
  base.max_schedules = 8;
  for (bool faults : {false, true}) {
    base.with_faults = faults;
    const std::vector<NetCellResult> results =
        net_sweep({NetProtocol::kSynced}, {StrategyKind::kRandomWalk, StrategyKind::kPct},
                  {samoa::testing::test_seed(42), samoa::testing::test_seed(1337)}, base);
    ASSERT_EQ(results.size(), 4u);
    for (const NetCellResult& res : results) {
      EXPECT_FALSE(res.violation_found)
          << res.cell_name() << " violated virtual synchrony!\n"
          << res.violation_summary << "\nshrunk trace: " << res.shrunk.encode() << "\nrepro:\n"
          << res.repro;
      EXPECT_EQ(res.schedules_run, schedule_budget(base.max_schedules)) << res.cell_name();
      EXPECT_GT(res.decisions.n, 0u) << res.cell_name() << ": no network decisions explored";
    }
  }
}

TEST(ExploreNetSweep, FaultControlsWidenTheDecisionSpace) {
  // Same cell, faults on vs off: the inert plan's control events are
  // extra candidates at existing decision points, so the per-run decision
  // trace gets strictly richer while behaviour stays clean.
  NetCellOptions o = gate_cell(NetProtocol::kSynced, StrategyKind::kRandomWalk);
  o.max_schedules = 4;
  const NetCellResult without = explore_net_cell(o);
  o.with_faults = true;
  const NetCellResult with = explore_net_cell(o);
  EXPECT_FALSE(without.violation_found);
  EXPECT_FALSE(with.violation_found);
  EXPECT_GT(with.decisions.n, without.decisions.n);
}

}  // namespace
}  // namespace samoa::explore
