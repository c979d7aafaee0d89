// Replay fidelity of network-schedule exploration — 'n' decisions over
// SimNetwork's DeliveryHook seam. The property everything rests on: a
// (cell options, 'n'-decision trace) pair reproduces the packet-level
// event stream bit-for-bit, across strategies, with fault controls in the
// decision mix, and across a lane-count change (candidate keys are site
// ids, so appending sites must not perturb a recorded schedule). Also pins
// the off-by-default contract: without a hook there are zero 'n' decisions
// and two runs are byte-identical, and a hook that always picks index 0
// reproduces the default (deliver_at, seq) merge order exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "explore/net_runner.hpp"
#include "explore/strategy.hpp"
#include "explore/trace.hpp"
#include "test_support.hpp"

namespace samoa::explore {
namespace {

NetCellOptions base_cell(NetProtocol protocol) {
  NetCellOptions o;
  o.protocol = protocol;
  o.seed = samoa::testing::test_seed(42);
  o.members = 3;
  o.relays = 3;
  o.views = 3;
  return o;
}

void expect_same_run(const NetRunResult& a, const NetRunResult& b, const std::string& label) {
  EXPECT_EQ(a.event_hash, b.event_hash) << label;
  ASSERT_EQ(a.events.size(), b.events.size()) << label;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i], b.events[i]) << label << " event " << i;
  }
  EXPECT_EQ(a.executed, b.executed) << label;
  EXPECT_EQ(a.violated, b.violated) << label;
}

TEST(ScheduleTraceNet, NDecisionsRoundtripAlongsideStepDecisions) {
  ScheduleTrace t;
  t.record('s', 2, 4);
  t.record('n', 1, 3);
  t.record('s', 1, 2);
  t.record('n', 0, 5);
  EXPECT_EQ(t.encode(), "s2/4.n1/3.s1/2.n0/5");
  EXPECT_EQ(ScheduleTrace::decode(t.encode()), t);
  // 'c' (the retired clock kind) is no longer a decision token.
  EXPECT_THROW(ScheduleTrace::decode("s2/4.c1/2"), std::invalid_argument);
}

TEST(ExploreNetReplay, RecordedTracesReplayByteIdenticallyAcrossStrategies) {
  const NetCellOptions o = base_cell(NetProtocol::kSynced);
  const std::uint64_t seed = samoa::testing::test_seed(7);

  RandomWalkStrategy walk(seed);
  PctStrategy pct(seed, /*k=*/3);
  FirstStrategy first;
  Strategy* strategies[] = {&walk, &pct, &first};
  const char* names[] = {"random-walk", "pct", "first"};
  for (std::size_t i = 0; i < 3; ++i) {
    const NetRunResult recorded = run_net_schedule(o, strategies[i]);
    const NetRunResult replayed = replay_net_schedule(o, recorded.executed);
    EXPECT_FALSE(replayed.replay_diverged) << names[i];
    expect_same_run(recorded, replayed, names[i]);
    for (const Decision& d : recorded.executed.decisions()) EXPECT_EQ(d.kind, 'n') << names[i];
  }
}

TEST(ExploreNetReplay, FaultControlDecisionsReplayByteIdentically) {
  // With the inert FaultPlan routed through ChaosEngine Route::kNetwork,
  // fault firings are candidates at the same decision points as packets —
  // and the recorded interleaving still replays exactly.
  NetCellOptions o = base_cell(NetProtocol::kUnsync);
  o.with_faults = true;
  RandomWalkStrategy walk(samoa::testing::test_seed(99));
  const NetRunResult recorded = run_net_schedule(o, &walk);
  EXPECT_GE(recorded.executed.size(), 1u);
  const NetRunResult replayed = replay_net_schedule(o, recorded.executed);
  EXPECT_FALSE(replayed.replay_diverged);
  expect_same_run(recorded, replayed, "with-faults");
}

TEST(ExploreNetReplay, TraceSurvivesLaneCountChange) {
  // Candidate keys are site ids; extra idle sites append new (never
  // eligible) lanes without shifting an existing id. A trace recorded
  // before the lane-count change must replay bit-for-bit after it.
  const NetCellOptions before = base_cell(NetProtocol::kSynced);
  RandomWalkStrategy walk(samoa::testing::test_seed(3));
  const NetRunResult recorded = run_net_schedule(before, &walk);

  NetCellOptions after = before;
  after.extra_sites = 4;
  const NetRunResult replayed = replay_net_schedule(after, recorded.executed);
  EXPECT_FALSE(replayed.replay_diverged);
  expect_same_run(recorded, replayed, "lane-count change");
}

TEST(ExploreNetReplay, NoHookRunsAreByteIdenticalWithZeroNetDecisions) {
  const NetCellOptions o = base_cell(NetProtocol::kSynced);
  const NetRunResult a = run_net_schedule(o, nullptr);
  const NetRunResult b = run_net_schedule(o, nullptr);
  EXPECT_TRUE(a.executed.empty());
  EXPECT_TRUE(b.executed.empty());
  expect_same_run(a, b, "no hook");
}

TEST(ExploreNetReplay, FirstStrategyReproducesTheDefaultMergeOrder) {
  // Candidates are presented in natural (deliver_at, seq) order, so index
  // 0 is the default merge choice: the explored run under FirstStrategy
  // must match the unexplored run byte-for-byte.
  const NetCellOptions o = base_cell(NetProtocol::kSynced);
  const NetRunResult plain = run_net_schedule(o, nullptr);
  FirstStrategy first;
  const NetRunResult hooked = run_net_schedule(o, &first);
  EXPECT_GE(hooked.executed.size(), 1u) << "decision points must exist in this workload";
  EXPECT_EQ(plain.event_hash, hooked.event_hash);
  EXPECT_EQ(plain.events, hooked.events);
}

TEST(ExploreNetReplay, ProtocolStateDoesNotLeakIntoTheNetworkSchedule) {
  // kSynced and kUnsync differ only in member-side view installation; the
  // packet-level schedule is identical, so the event streams are too.
  const NetRunResult synced = run_net_schedule(base_cell(NetProtocol::kSynced), nullptr);
  const NetRunResult unsync = run_net_schedule(base_cell(NetProtocol::kUnsync), nullptr);
  EXPECT_EQ(synced.event_hash, unsync.event_hash);
  EXPECT_EQ(synced.events, unsync.events);
  EXPECT_FALSE(synced.violated);
  EXPECT_FALSE(unsync.violated);
}

}  // namespace
}  // namespace samoa::explore
