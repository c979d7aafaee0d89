// Runtime — spawning of isolated computations.
//
// One Runtime drives one protocol stack with one concurrency-control
// policy. `spawn_isolated(spec, root)` is the C++ rendering of the paper's
// `isolated M e`: it admits a new computation under the controller
// (Step 1), runs `root` on the dispatch substrate, and guarantees that the
// concurrent execution of all spawned computations satisfies the isolation
// property (for the VCA policies; kSerial trivially so, kUnsync not at
// all — it exists as the Cactus-like baseline).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "cc/controller.hpp"
#include "core/computation.hpp"
#include "core/context.hpp"
#include "core/stack.hpp"
#include "core/step_hook.hpp"
#include "core/trace.hpp"
#include "time/clock.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace samoa {

/// Where computation tasks run is not an option; it follows from the
/// inputs (see DESIGN.md "Dispatch"). Under a time::VirtualClock with no
/// step hook every task runs to completion on the spawning thread: tasks go
/// to a thread-local FIFO that the outermost spawner drains before
/// spawn_isolated returns. Async tasks run after the task that issued them
/// (in issue order), and a computation spawned from inside a task starts
/// only once the queued async work is done — legal under every controller
/// because a serial execution is isolated by definition. Everywhere else
/// (the wall clock, or any runtime a schedule explorer drives) tasks run on
/// the runtime's elastic pool, which grows past a worker parked in a
/// version gate so runnable work is never starved.
struct RuntimeOptions {
  CCPolicy policy = CCPolicy::kVCABasic;
  /// Record (event, handler) runs for the isolation checker / diagnostics.
  bool record_trace = false;
  /// Time base. Null means the process wall clock. Under a
  /// time::VirtualClock the runtime holds one activity pin per in-flight
  /// computation, so virtual time stands still while computations run.
  time::ClockSource* clock = nullptr;
  /// Schedule-exploration seam (see core/step_hook.hpp). Null — the
  /// default — costs one pointer test per scheduling point; non-null
  /// serializes all computation tasks behind the hook's token scheduler,
  /// on the elastic pool on either clock (the token barrier needs every
  /// submitted task to be independently startable).
  StepHook* step_hook = nullptr;
};

class Runtime {
 public:
  explicit Runtime(Stack& stack, RuntimeOptions opts = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Spawn a computation under the isolation declaration `spec`; `root` is
  /// the expression e of `isolated M e`. Seals the stack on first use.
  /// The declaration is only read during admission, so a caller may build
  /// it once and spawn from it any number of times.
  ComputationHandle spawn_isolated(const Isolation& spec, std::function<void(Context&)> root);

  /// One element of a batched spawn: the same (spec, root) pair
  /// spawn_isolated takes.
  struct SpawnRequest {
    Isolation spec;
    std::function<void(Context&)> root;
  };

  /// Spawn a burst of computations as one admission transaction: the
  /// controller admits the whole batch (one version-range claim per gate
  /// for compatible single-mp bursts — see admit_batch), and the pool
  /// enqueues every root task under a single lock acquisition. Semantics
  /// are identical to calling spawn_isolated for each request in order;
  /// handle i corresponds to request i.
  std::vector<ComputationHandle> spawn_isolated_batch(std::vector<SpawnRequest> reqs);

  /// Block until every computation spawned so far completed.
  void drain();

  Stack& stack() { return stack_; }
  ElasticThreadPool& pool() { return pool_; }
  ConcurrencyController& controller() { return *controller_; }
  CCPolicy policy() const { return opts_.policy; }

  /// Null when tracing is off.
  TraceRecorder* trace() { return trace_ ? trace_.get() : nullptr; }

  /// Null unless a schedule explorer drives this runtime.
  StepHook* step_hook() { return opts_.step_hook; }

  struct Stats {
    Counter spawned;
    Counter completed;
    Counter handler_calls;
  };
  const Stats& stats() const { return stats_; }

  // -- internal (called by Computation / Context) --
  void record_computation_done(ComputationId id);
  void on_computation_done(ComputationId id);
  void count_handler_call() { stats_.handler_calls.add(); }
  /// Route an async handler task of computation `comp_id` to the dispatch
  /// substrate.
  void submit_handler(std::uint64_t comp_id, std::function<void()> fn);

 private:
  /// Erase `id` from inflight_, waking drain(). Returns whether this call
  /// removed it — the winner owns the computation's virtual-time unpin.
  bool remove_inflight(ComputationId id);

  /// Build the pool task that runs `root` as `comp`'s root expression
  /// (including the TSO restart loop); shared by single and batched spawn.
  std::function<void()> root_task(std::shared_ptr<Computation> comp,
                                  std::function<void(Context&)> root, std::uint64_t ticket);

  /// Route a root task to the elastic pool or this thread's inline queue.
  void submit_root(std::uint64_t comp_id, std::function<void()> fn);

  Stack& stack_;
  RuntimeOptions opts_;
  /// Run-to-completion on the spawning thread (see RuntimeOptions).
  const bool inline_;
  std::unique_ptr<ConcurrencyController> controller_;
  std::unique_ptr<TraceRecorder> trace_;
  ElasticThreadPool pool_;

  IdAllocator<ComputationTag> comp_ids_;
  Stats stats_;

  mutable std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  std::unordered_map<ComputationId, std::shared_ptr<Computation>> inflight_;
};

}  // namespace samoa
