#include "core/runtime.hpp"

#include <deque>
#include <optional>

#include "core/errors.hpp"
#include "diag/wait_registry.hpp"

namespace samoa {

namespace {

// The elastic pool's thread bounds. The cap counts runnable workers only:
// a worker parked in a version gate does not hold a slot.
constexpr std::size_t kMinPoolThreads = 2;
constexpr std::size_t kMaxPoolThreads = 1024;

// Under a virtual clock the pins already let only one event run at a time,
// so threads would buy handoffs, not parallelism. Exploration needs the
// pool's independently startable tasks on either clock.
bool dispatches_inline(const RuntimeOptions& opts) {
  return opts.clock != nullptr && opts.clock->is_virtual() && opts.step_hook == nullptr;
}

// The inline substrate: one run-to-completion queue per thread, shared by
// every inline runtime the thread spawns into. Async handler tasks drain
// before queued roots, so a computation spawned from inside a task starts
// only after the running computation finished its async work. At most one
// computation is therefore in progress per thread, and it was admitted
// before every queued root: its gates wait only on computations that are
// complete or running on other threads, never on work stuck behind it.
struct InlineQueue {
  std::deque<std::function<void()>> handlers;
  std::deque<std::function<void()>> roots;
  bool draining = false;

  /// Run queued tasks until both queues are empty, unless an enclosing
  /// frame on this thread is already doing so. Tasks record their own
  /// errors on their computation; one that escapes terminates, as it does
  /// on a pool thread.
  void drain() noexcept {
    if (draining) return;
    draining = true;
    for (;;) {
      auto& from = !handlers.empty() ? handlers : roots;
      if (from.empty()) break;
      std::function<void()> task = std::move(from.front());
      from.pop_front();
      task();
    }
    draining = false;
  }
};

thread_local InlineQueue t_inline;

}  // namespace

Runtime::Runtime(Stack& stack, RuntimeOptions opts)
    : stack_(stack),
      opts_(opts),
      inline_(dispatches_inline(opts)),
      controller_(make_controller(opts.policy)),
      trace_(opts.record_trace ? std::make_unique<TraceRecorder>() : nullptr),
      // An inline runtime never submits to the pool; its floor threads
      // would sit idle.
      pool_(ElasticThreadPool::Options{inline_ ? 0 : kMinPoolThreads, kMaxPoolThreads,
                                       std::chrono::milliseconds(200)}) {}

Runtime::~Runtime() {
  drain();
  pool_.shutdown();
}

void Runtime::submit_root(std::uint64_t comp_id, std::function<void()> fn) {
  if (inline_) {
    t_inline.roots.push_back(std::move(fn));
    t_inline.drain();
  } else {
    pool_.submit(std::move(fn), comp_id);
  }
}

void Runtime::submit_handler(std::uint64_t comp_id, std::function<void()> fn) {
  if (inline_) {
    t_inline.handlers.push_back(std::move(fn));
    t_inline.drain();
  } else {
    pool_.submit(std::move(fn), comp_id);
  }
}

std::function<void()> Runtime::root_task(std::shared_ptr<Computation> comp,
                                         std::function<void(Context&)> root,
                                         std::uint64_t ticket) {
  return [this, comp = std::move(comp), ticket, root = std::move(root)] {
    diag::ScopedComputation diag_scope(comp->id().value());
    StepHook* hook = opts_.step_hook;
    if (hook != nullptr) hook->on_task_started(comp->id(), ticket);
    // The loop only repeats under TSO, whose wait-die losers roll back
    // their TxVar state and re-run with a fresh timestamp. The versioning
    // controllers never abort, so the first pass is the only pass.
    constexpr std::uint32_t kMaxRestarts = 1000;
    for (;;) {
      Context ctx(comp, HandlerId{});
      try {
        comp->cc().on_start();
        // on_start may have parked (serial turnstile) and lost the
        // exploration token; re-acquire it with no locks held before
        // running observable work.
        if (hook != nullptr) hook->resync(comp->id());
        root(ctx);
      } catch (const RestartNeeded&) {
        // Order matters: roll the TxVar state back *while the claims are
        // still held* — releasing first would let another computation read
        // (and build on) state the rollback is about to clobber.
        comp->undo_log().rollback();  // restore TxVar state
        comp->cc().on_abort();        // then release claims; keeps its timestamp
        if (hook != nullptr) hook->resync(comp->id());  // on_abort may park (death wait)
        // Everything this pass touched has been undone; tell the trace so
        // the isolation checker ignores the aborted accesses. The retry
        // keeps the original timestamp (classic wait-die), so a restarted
        // computation only ever gets older relative to newcomers and
        // cannot starve.
        if (trace_) {
          trace_->record(TracePhase::kAbort, comp->id(), MicroprotocolId{}, HandlerId{});
        }
        comp->count_restart();
        if (comp->restarts() >= kMaxRestarts) {
          comp->record_error(std::make_exception_ptr(
              SamoaError("TSO computation exceeded the restart limit (livelock?)")));
          break;
        }
        continue;
      } catch (...) {
        comp->record_error(std::current_exception());
      }
      comp->undo_log().clear();  // committed: drop the rollback entries
      break;
    }
    comp->cc().on_root_done();
    if (hook != nullptr) hook->resync(comp->id());
    // If this was the computation's last task, task_finished runs
    // finalize (on_complete + completion signal) on this thread, still
    // under the exploration token; the token is released for good below.
    comp->task_finished();
    if (hook != nullptr) hook->on_task_finished(comp->id());
  };
}

ComputationHandle Runtime::spawn_isolated(const Isolation& spec,
                                          std::function<void(Context&)> root) {
  if (!stack_.sealed()) stack_.seal();
  // Route handler ids resolve against this stack; a private copy keeps the
  // caller's declaration reusable.
  std::optional<Isolation> resolved;
  if (spec.kind() == Isolation::Kind::Route) {
    resolved.emplace(spec);
    resolved->resolve_route(stack_);
  }

  const ComputationId id = comp_ids_.next();
  // Step 1 (atomic admission) happens inside the controller.
  auto cc = controller_->admit(id, resolved ? *resolved : spec);
  auto comp = std::make_shared<Computation>(*this, id, std::move(cc));
  if (opts_.policy == CCPolicy::kTSO) comp->enable_undo();

  {
    std::unique_lock lock(inflight_mu_);
    inflight_.emplace(id, comp);
  }
  // Pin virtual time for the lifetime of the computation: the simulated
  // clock must not advance (and no further event may dispatch) until the
  // work this event triggered has fully completed. The matching unpin is
  // tied to removing `id` from inflight_ (normally in on_computation_done;
  // in the catch below if tracing or submission throws) — whichever path
  // wins the erase unpins, so the pin is released exactly once even when
  // pool_.submit enqueues the task before throwing. A leaked pin would
  // freeze virtual time forever.
  if (opts_.clock != nullptr) opts_.clock->pin();
  try {
    stats_.spawned.add();
    if (trace_) trace_->record(TracePhase::kSpawn, id, MicroprotocolId{}, HandlerId{});

    comp->task_started();  // the root expression counts as one task
    const std::uint64_t ticket =
        opts_.step_hook != nullptr ? opts_.step_hook->on_task_submitted(id) : 0;
    submit_root(id.value(), root_task(comp, std::move(root), ticket));
  } catch (...) {
    if (remove_inflight(id) && opts_.clock != nullptr) opts_.clock->unpin();
    throw;
  }
  return ComputationHandle(comp);
}

std::vector<ComputationHandle> Runtime::spawn_isolated_batch(std::vector<SpawnRequest> reqs) {
  std::vector<ComputationHandle> handles;
  if (reqs.empty()) return handles;
  if (!stack_.sealed()) stack_.seal();
  for (SpawnRequest& r : reqs) {
    if (r.spec.kind() == Isolation::Kind::Route) r.spec.resolve_route(stack_);
  }

  // Step 1 for the whole burst: ids in request order, then one controller
  // batch admission — versions claimed respect request order on every
  // shared microprotocol, exactly as if spawn_isolated ran sequentially.
  std::vector<AdmitRequest> admits;
  admits.reserve(reqs.size());
  for (const SpawnRequest& r : reqs) admits.push_back({comp_ids_.next(), &r.spec});
  auto ccs = controller_->admit_batch(admits);

  std::vector<std::shared_ptr<Computation>> comps;
  comps.reserve(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    auto comp = std::make_shared<Computation>(*this, admits[i].k, std::move(ccs[i]));
    if (opts_.policy == CCPolicy::kTSO) comp->enable_undo();
    comps.push_back(std::move(comp));
  }
  {
    std::unique_lock lock(inflight_mu_);
    for (const auto& comp : comps) inflight_.emplace(comp->id(), comp);
  }
  // Same pin/unpin discipline as spawn_isolated, one pin per computation;
  // on a submission failure every not-yet-completed member is rolled out.
  if (opts_.clock != nullptr) {
    for (std::size_t i = 0; i < comps.size(); ++i) opts_.clock->pin();
  }
  try {
    stats_.spawned.add(comps.size());
    std::vector<ElasticThreadPool::Task> tasks;
    tasks.reserve(comps.size());
    for (std::size_t i = 0; i < comps.size(); ++i) {
      auto& comp = comps[i];
      if (trace_) trace_->record(TracePhase::kSpawn, comp->id(), MicroprotocolId{}, HandlerId{});
      comp->task_started();  // the root expression counts as one task
      const std::uint64_t ticket =
          opts_.step_hook != nullptr ? opts_.step_hook->on_task_submitted(comp->id()) : 0;
      tasks.push_back({root_task(comp, std::move(reqs[i].root), ticket), comp->id().value()});
    }
    if (inline_) {
      // Admission order; the members run back to back once all are queued.
      for (ElasticThreadPool::Task& t : tasks) t_inline.roots.push_back(std::move(t.fn));
      t_inline.drain();
    } else {
      pool_.submit_batch(std::move(tasks));
    }
  } catch (...) {
    for (const auto& comp : comps) {
      if (remove_inflight(comp->id()) && opts_.clock != nullptr) opts_.clock->unpin();
    }
    throw;
  }
  handles.reserve(comps.size());
  for (auto& comp : comps) handles.emplace_back(std::move(comp));
  return handles;
}

void Runtime::record_computation_done(ComputationId id) {
  if (trace_) trace_->record(TracePhase::kDone, id, MicroprotocolId{}, HandlerId{});
}

bool Runtime::remove_inflight(ComputationId id) {
  std::unique_lock lock(inflight_mu_);
  const bool removed = inflight_.erase(id) > 0;
  if (removed) inflight_cv_.notify_all();
  return removed;
}

void Runtime::on_computation_done(ComputationId id) {
  stats_.completed.add();
  if (remove_inflight(id) && opts_.clock != nullptr) opts_.clock->unpin();
}

void Runtime::drain() {
  std::unique_lock lock(inflight_mu_);
  if (inflight_.empty()) return;
  diag::ScopedWait wait(diag::WaitKind::kDrain, this, "runtime-drain", 0, 0, inflight_.size());
  inflight_cv_.wait(lock, [this] { return inflight_.empty(); });
}

}  // namespace samoa
