// Network-schedule exploration cells — distributed interleavings under the
// SimNetwork DeliveryHook seam, with the virtual-synchrony checker as the
// oracle.
//
// A *net cell* is a fully-seeded fleet workload run on SimNetwork +
// VirtualClock under one exploration strategy: a coordinator fans
// totally-ordered data messages and view installations out through relay
// sites to a set of members, so several relay lanes race into each
// member's lane and the 'n' decisions at each commit step pick the
// interleaving. Two protocol variants close the loop from the paper's
// synchronisation argument:
//
//   kSynced    members defer a view installation until every data message
//              the view's quota names has been delivered — the
//              synchronisation microprotocol discipline. Clean under every
//              explored interleaving.
//   kUnsync    members install a view the moment its announcement arrives,
//              so a data message whose relay lost the race is delivered in
//              the *new* view on some members and the *old* view on others
//              — a same-view-agreement violation (vs_checker rule 1) that
//              the default (deliver_at, seq) order never produces, because
//              the coordinator seeds data before views and FIFO order
//              preserves that everywhere.
//
// Every schedule's member-observed IncarnationTraces are fed through
// check_virtual_synchrony; a violation stops the cell, gets shrunk by
// delta debugging (same shrinker as step schedules), and is reported with
// the executed 'n' trace plus a standalone repro snippet. With
// `with_faults`, a behaviourally-inert FaultPlan (a partition + heal
// between two members that never exchange packets, and a zero-drop loss
// burst) is armed through ChaosEngine Route::kNetwork so fault *timing*
// joins the decision space without perturbing the protocol.
//
// Environment knobs are shared with ExploreRunner: SAMOA_EXPLORE_SCHEDULES
// multiplies each cell's budget, SAMOA_EXPLORE_DUMP_DIR collects shrunk
// traces + repros of violating cells.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "explore/runner.hpp"
#include "explore/strategy.hpp"
#include "explore/trace.hpp"

namespace samoa::explore {

enum class NetProtocol { kSynced, kUnsync };

const char* to_string(NetProtocol protocol);

struct NetCellOptions {
  NetProtocol protocol = NetProtocol::kSynced;
  StrategyKind strategy = StrategyKind::kRandomWalk;
  std::uint64_t seed = 1;
  /// Fleet shape: `members` delivery sinks, `relays` racing forwarders,
  /// one coordinator. `views - 1` epochs each ship 2 data messages and one
  /// view installation through seeded relay assignments.
  int members = 3;
  int relays = 3;
  int views = 2;
  /// Arm the inert FaultPlan through ChaosEngine Route::kNetwork so fault
  /// events appear as 'n' decision candidates.
  bool with_faults = false;
  /// Idle sites appended after the coordinator: grows the lane count
  /// without touching any existing site id, so a trace recorded at
  /// extra_sites == 0 must replay bit-for-bit at extra_sites > 0 (the
  /// candidate keys are site ids, which do not shift).
  int extra_sites = 0;
  std::size_t max_schedules = 64;
  std::size_t pct_k = 3;
  std::size_t exhaustive_depth = 12;
  std::size_t shrink_budget = 150;
};

/// One schedule of a net cell.
struct NetRunResult {
  bool violated = false;
  ScheduleTrace executed;  // the 'n' decisions this run recorded
  /// Packet-level event log (one line per delivery / late drop / control
  /// firing, in execution order) and its FNV-1a hash: two runs took the
  /// same network schedule iff these are equal.
  std::vector<std::string> events;
  std::uint64_t event_hash = 0;
  std::string violation_summary;
  bool replay_diverged = false;  // replay_net_schedule only
};

struct NetCellResult {
  NetCellOptions options;
  std::size_t schedules_run = 0;
  DecisionCounts decisions;
  bool violation_found = false;
  ScheduleTrace first_violation;
  ScheduleTrace shrunk;  // delta-debugged minimum (still violating)
  std::string violation_summary;
  std::string repro;  // standalone snippet reproducing the shrunk schedule

  std::string cell_name() const;
};

/// Execute the cell workload once under `strategy` (pass nullptr for the
/// default (deliver_at, seq) order — no hook installed, zero 'n'
/// decisions).
NetRunResult run_net_schedule(const NetCellOptions& opts, Strategy* strategy);

/// Replay a recorded (cell, trace) pair — same seeded workload, decisions
/// forced from `trace`. With an unchanged cell the replay is bit-for-bit:
/// identical packet event log, replay_diverged == false.
NetRunResult replay_net_schedule(const NetCellOptions& opts, const ScheduleTrace& trace);

/// Run up to max_schedules schedules (times SAMOA_EXPLORE_SCHEDULES);
/// stop at the first vs violation, shrink it, build the repro.
NetCellResult explore_net_cell(const NetCellOptions& opts);

/// explore_net_cell over the cross product, one NetCellResult per cell.
std::vector<NetCellResult> net_sweep(const std::vector<NetProtocol>& protocols,
                                     const std::vector<StrategyKind>& strategies,
                                     const std::vector<std::uint64_t>& seeds,
                                     const NetCellOptions& base);

}  // namespace samoa::explore
