// Tests of the dispatch substrates: the per-microprotocol executor layer
// (the ExecutorGroup's queue discipline in isolation, and the
// Runtime/Context integration — per-mp FIFO, batched trigger fan-out, park
// handoff, and the diag surface), the inline run-to-completion substrate,
// and how DispatchImpl::kAuto resolves.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cc/controller.hpp"
#include "core/executor.hpp"
#include "core/runtime.hpp"
#include "diag/wait_registry.hpp"
#include "tests/test_support.hpp"
#include "time/clock.hpp"

namespace samoa {
namespace {

using testing::BlockingMp;
using testing::LoggingMp;
using testing::ProbeMp;

// --- ExecutorGroup in isolation ------------------------------------------

TEST(ExecutorGroup, SingleProducerFifoAcrossRingAndOverflow) {
  // Capacity 16 with 200 tasks forces the ring-full overflow path while a
  // spinning first task holds the consumer; order must survive the
  // ring -> overflow -> ring transitions.
  ExecutorOptions opts;
  opts.shards = 1;
  opts.queue_capacity = 16;
  ExecutorGroup ex(opts);
  std::atomic<bool> go{false};
  std::vector<int> order;
  ex.submit(0, [&] {
    while (!go.load()) std::this_thread::yield();
  }, 1);
  for (int i = 0; i < 200; ++i) {
    ex.submit(0, [&order, i] { order.push_back(i); }, 1);
  }
  go.store(true);
  ex.shutdown();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ExecutorGroup, OverflowPreservesPerProducerFifo) {
  ExecutorOptions opts;
  opts.shards = 1;
  opts.queue_capacity = 4;
  ExecutorGroup ex(opts);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 100;
  std::mutex mu;
  std::vector<std::pair<int, int>> log;  // (producer, seq)
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ex.submit(0, [&, p, i] {
          std::unique_lock lk(mu);
          log.emplace_back(p, i);
        }, 1);
      }
    });
  }
  for (auto& t : producers) t.join();
  ex.shutdown();
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  std::vector<int> next(kProducers, 0);
  for (const auto& [p, seq] : log) {
    EXPECT_EQ(seq, next[static_cast<std::size_t>(p)]) << "producer " << p << " reordered";
    ++next[static_cast<std::size_t>(p)];
  }
}

TEST(ExecutorGroup, ShutdownRunsQueuedWork) {
  // Tasks still queued when shutdown() is called must execute, not drop.
  ExecutorOptions opts;
  opts.shards = 2;
  ExecutorGroup ex(opts);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ex.submit(static_cast<std::size_t>(i) % 2, [&] { ran.fetch_add(1); }, 1);
  }
  ex.shutdown();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ExecutorGroup, SubmitAfterShutdownThrows) {
  ExecutorGroup ex(ExecutorOptions{.shards = 1});
  ex.shutdown();
  EXPECT_THROW(ex.submit(0, [] {}, 1), std::runtime_error);
  ex.shutdown();  // idempotent
}

TEST(ExecutorGroup, RoundRobinCyclesAllShards) {
  ExecutorGroup ex(ExecutorOptions{.shards = 3});
  EXPECT_EQ(ex.shard_count(), 3u);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(ex.next_shard(), i % 3);
}

TEST(ExecutorGroup, StatsCountDispatches) {
  CCStats stats;
  ExecutorGroup ex(ExecutorOptions{.shards = 1}, &stats);
  for (int i = 0; i < 10; ++i) ex.submit(0, [] {}, 1);
  ex.shutdown();
  EXPECT_EQ(stats.exec_dispatched.value(), 10u);
  EXPECT_EQ(stats.exec_enqueues.value(), 10u);
  EXPECT_GE(stats.exec_batches.value(), 1u);
  EXPECT_GE(stats.exec_batch_size.count(), 1u);
}

// --- Runtime / Context integration ---------------------------------------

struct RecorderMp : Microprotocol {
  explicit RecorderMp(std::string name) : Microprotocol(std::move(name)) {
    handler = &register_handler("run", [this](Context&, const Message& msg) {
      std::unique_lock lk(mu);
      seen.push_back(msg.as<int>());
    });
  }
  const Handler* handler = nullptr;
  std::mutex mu;
  std::vector<int> seen;
};

RuntimeOptions exec_opts() {
  RuntimeOptions o;
  o.policy = CCPolicy::kVCABasic;
  o.dispatch_impl = DispatchImpl::kExecutor;
  return o;
}

TEST(ExecutorDispatch, AsyncTriggersOfOneMpRunInIssueOrder) {
  // Every async dispatch to one microprotocol lands on its shard; the
  // shard's FIFO makes issue order the execution order, with no gate or
  // lock involved.
  Stack stack;
  auto& mp = stack.emplace<RecorderMp>("rec");
  EventType ev("Rec");
  stack.bind(ev, *mp.handler);
  Runtime rt(stack, exec_opts());
  ASSERT_NE(rt.executor_group(), nullptr);
  auto h = rt.spawn_isolated(Isolation::basic({&mp}), [&](Context& ctx) {
    for (int i = 0; i < 64; ++i) ctx.async_trigger(ev, Message::of(i));
  });
  h.wait();
  rt.drain();
  ASSERT_EQ(mp.seen.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(mp.seen[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(rt.controller().stats().gate_waits.value(), 0u);
}

TEST(ExecutorDispatch, FanoutBatchesOneNodePerTargetShard) {
  // async_trigger_all must enqueue one node per distinct target shard,
  // not one per handler.
  Stack stack;
  std::vector<ProbeMp*> mps;
  std::vector<const Microprotocol*> members;
  EventType ev("Fan");
  for (int i = 0; i < 6; ++i) {
    auto& mp = stack.emplace<ProbeMp>("fan" + std::to_string(i));
    stack.bind(ev, *mp.handler);
    mps.push_back(&mp);
    members.push_back(&mp);
  }
  Runtime rt(stack, exec_opts());
  ExecutorGroup* ex = rt.executor_group();
  ASSERT_NE(ex, nullptr);
  std::vector<bool> shard_hit(ex->shard_count(), false);
  for (ProbeMp* mp : mps) shard_hit[ex->shard_of(mp->id().value())] = true;
  std::size_t distinct = 0;
  for (bool hit : shard_hit) distinct += hit ? 1 : 0;

  auto h = rt.spawn_isolated(Isolation::basic(members),
                             [&](Context& ctx) { ctx.async_trigger_all(ev); });
  h.wait();
  rt.drain();
  for (ProbeMp* mp : mps) EXPECT_EQ(mp->calls.load(), 1);
  const CCStats& stats = rt.controller().stats();
  // One enqueue for the root task plus one per distinct handler shard.
  EXPECT_EQ(stats.exec_enqueues.value(), 1u + distinct);
  EXPECT_EQ(rt.stats().handler_calls.value(), 6u);
}

TEST(ExecutorDispatch, NoConflictWorkloadNeverParksOrSlowAdmits) {
  // Single-mp computations on disjoint microprotocols: the admission fast
  // path and shard FIFO keep both slow admissions and gate parks at zero.
  Stack stack;
  std::vector<ProbeMp*> mps;
  for (int i = 0; i < 16; ++i) {
    mps.push_back(&stack.emplace<ProbeMp>("own" + std::to_string(i)));
  }
  RuntimeOptions opts = exec_opts();
  opts.record_trace = true;
  Runtime rt(stack, opts);
  std::vector<EventType> evs;
  evs.reserve(mps.size());
  for (std::size_t i = 0; i < mps.size(); ++i) {
    evs.emplace_back("Own" + std::to_string(i));
    stack.bind(evs[i], *mps[i]->handler);
  }
  std::vector<ComputationHandle> hs;
  for (std::size_t i = 0; i < mps.size(); ++i) {
    hs.push_back(rt.spawn_isolated(Isolation::basic({mps[i]}), [&, i](Context& ctx) {
      ctx.trigger(evs[i]);
      ctx.async_trigger(evs[i]);
    }));
  }
  for (auto& h : hs) h.wait();
  rt.drain();
  const CCStats& stats = rt.controller().stats();
  EXPECT_EQ(stats.admit_slow.value(), 0u);
  EXPECT_EQ(stats.gate_waits.value(), 0u);
  EXPECT_GE(stats.exec_dispatched.value(), 16u);
  testing::expect_isolated(rt);
}

TEST(ExecutorDispatch, BlockedHandlerHandsOffConsumerRole) {
  // A handler parked in an instrumented wait must not wedge its shard:
  // the consumer role moves to a replacement and queued/new computations
  // keep completing.
  Stack stack;
  auto& blocker = stack.emplace<BlockingMp>("blocker");
  auto& probe = stack.emplace<ProbeMp>("probe");
  EventType block_ev("Block");
  EventType probe_ev("Probe");
  stack.bind(block_ev, *blocker.handler);
  stack.bind(probe_ev, *probe.handler);
  Runtime rt(stack, exec_opts());
  auto blocked = rt.spawn_isolated(Isolation::basic({&blocker}),
                                   [&](Context& ctx) { ctx.trigger(block_ev); });
  blocker.started.wait();
  std::vector<ComputationHandle> hs;
  for (int i = 0; i < 6; ++i) {
    hs.push_back(rt.spawn_isolated(Isolation::basic({&probe}),
                                   [&](Context& ctx) { ctx.trigger(probe_ev); }));
  }
  for (auto& h : hs) h.wait();
  EXPECT_EQ(probe.calls.load(), 6);
  EXPECT_GE(rt.controller().stats().exec_handoffs.value(), 1u);
  blocker.release.set();
  blocked.wait();
  rt.drain();
}

struct Boom {};

struct ThrowerMp : Microprotocol {
  explicit ThrowerMp(std::string name) : Microprotocol(std::move(name)) {
    boom = &register_handler("boom", [](Context&, const Message&) { throw Boom{}; });
    ok = &register_handler("ok", [this](Context&, const Message&) { ok_calls.fetch_add(1); });
  }
  const Handler* boom = nullptr;
  const Handler* ok = nullptr;
  std::atomic<int> ok_calls{0};
};

TEST(ExecutorDispatch, ThrowingQueuedTaskDoesNotWedgeShard) {
  // A queued async handler that throws is recorded on its computation and
  // the shard keeps draining — the cancel-while-queued shape: the work is
  // abandoned by its computation, never by the queue.
  Stack stack;
  auto& thrower = stack.emplace<ThrowerMp>("thrower");
  EventType boom_ev("Boom");
  EventType ok_ev("Ok");
  stack.bind(boom_ev, *thrower.boom);
  stack.bind(ok_ev, *thrower.ok);
  Runtime rt(stack, exec_opts());
  auto failing = rt.spawn_isolated(Isolation::basic({&thrower}),
                                   [&](Context& ctx) { ctx.async_trigger(boom_ev); });
  EXPECT_THROW(failing.wait(), Boom);
  auto ok = rt.spawn_isolated(Isolation::basic({&thrower}),
                              [&](Context& ctx) { ctx.trigger(ok_ev); });
  ok.wait();
  EXPECT_EQ(thrower.ok_calls.load(), 1);
  rt.drain();
}

TEST(ExecutorDispatch, DiagDumpNamesExecutorShards) {
  Stack stack;
  stack.emplace<ProbeMp>("p");
  Runtime rt(stack, exec_opts());
  const diag::Dump dump = diag::WaitRegistry::instance().snapshot();
  bool found = false;
  for (const diag::ExecutorGroupState& g : dump.executors) {
    if (g.group == static_cast<const void*>(rt.executor_group())) {
      found = true;
      EXPECT_EQ(g.shards.size(), 8u);  // auto default
    }
  }
  EXPECT_TRUE(found) << "executor group missing from the wait-registry dump";
  EXPECT_NE(dump.to_text().find("executor"), std::string::npos);
  EXPECT_NE(dump.to_json().find("\"executors\""), std::string::npos);
}

class NullHook final : public StepHook {
 public:
  std::uint64_t on_task_submitted(ComputationId) override { return 0; }
  void on_task_started(ComputationId, std::uint64_t) override {}
  void on_task_finished(ComputationId) override {}
  void step_point(ComputationId, const char*) override {}
  void resync(ComputationId) override {}
};

/// Sets (or, with nullopt, unsets) SAMOA_DISPATCH for one scope, so the
/// resolution tests hold whatever the suite's environment selects.
class ScopedDispatchEnv {
 public:
  explicit ScopedDispatchEnv(std::optional<std::string> value) {
    if (const char* prev = std::getenv("SAMOA_DISPATCH")) prev_ = prev;
    if (value) {
      ::setenv("SAMOA_DISPATCH", value->c_str(), 1);
    } else {
      ::unsetenv("SAMOA_DISPATCH");
    }
  }
  ~ScopedDispatchEnv() {
    if (prev_) {
      ::setenv("SAMOA_DISPATCH", prev_->c_str(), 1);
    } else {
      ::unsetenv("SAMOA_DISPATCH");
    }
  }

 private:
  std::optional<std::string> prev_;
};

TEST(ExecutorDispatch, ResolutionHonoursOptionAndStepHook) {
  Stack stack;
  stack.emplace<ProbeMp>("p");
  {
    RuntimeOptions o;
    o.dispatch_impl = DispatchImpl::kElasticPool;
    Runtime rt(stack, o);
    EXPECT_EQ(rt.dispatch_impl(), DispatchImpl::kElasticPool);
    EXPECT_EQ(rt.executor_group(), nullptr);
  }
  {
    RuntimeOptions o;
    o.dispatch_impl = DispatchImpl::kExecutor;
    Runtime rt(stack, o);
    EXPECT_EQ(rt.dispatch_impl(), DispatchImpl::kExecutor);
    EXPECT_NE(rt.executor_group(), nullptr);
  }
  {
    // Exploration always forces the pool, whatever was requested.
    NullHook hook;
    RuntimeOptions o;
    o.dispatch_impl = DispatchImpl::kExecutor;
    o.step_hook = &hook;
    Runtime rt(stack, o);
    EXPECT_EQ(rt.dispatch_impl(), DispatchImpl::kElasticPool);
    EXPECT_EQ(rt.executor_group(), nullptr);
  }
}

TEST(ExecutorDispatch, PoolStartsThreadsOnlyAsTheSubstrate) {
  // The pool's min_threads floor is started only when the pool runs the
  // tasks; under the executor it would be two idle threads per runtime.
  Stack stack;
  stack.emplace<ProbeMp>("p");
  {
    Runtime rt(stack, exec_opts());
    EXPECT_EQ(rt.pool().peak_thread_count(), 0u);
  }
  {
    RuntimeOptions o;
    o.dispatch_impl = DispatchImpl::kElasticPool;
    Runtime rt(stack, o);
    EXPECT_EQ(rt.pool().peak_thread_count(), o.min_threads);
  }
}

// --- Inline substrate (virtual time) -------------------------------------

RuntimeOptions virtual_opts(time::ClockSource& clock) {
  RuntimeOptions o;
  o.policy = CCPolicy::kVCABasic;
  o.clock = &clock;
  return o;
}

TEST(InlineDispatch, VirtualClockRunsSpawnsToCompletion) {
  ScopedDispatchEnv env(std::nullopt);
  time::VirtualClock clock;
  Stack stack;
  auto& probe = stack.emplace<ProbeMp>("probe");
  EventType ev("Probe");
  stack.bind(ev, *probe.handler);
  Runtime rt(stack, virtual_opts(clock));
  EXPECT_EQ(rt.dispatch_impl(), DispatchImpl::kInline);
  EXPECT_EQ(rt.executor_group(), nullptr);
  auto h = rt.spawn_isolated(Isolation::basic({&probe}), [&](Context& ctx) {
    ctx.trigger(ev);
    ctx.async_trigger(ev);
  });
  // The computation, async task included, completed inside the spawn.
  EXPECT_TRUE(h.done());
  EXPECT_EQ(probe.calls.load(), 2);
  std::vector<Runtime::SpawnRequest> burst;
  for (int i = 0; i < 4; ++i) {
    burst.push_back({Isolation::basic({&probe}), [&](Context& ctx) { ctx.async_trigger(ev); }});
  }
  for (const ComputationHandle& b : rt.spawn_isolated_batch(std::move(burst))) {
    EXPECT_TRUE(b.done());
  }
  EXPECT_EQ(probe.calls.load(), 6);
  EXPECT_EQ(rt.pool().peak_thread_count(), 0u);
  EXPECT_EQ(rt.controller().stats().gate_waits.value(), 0u);
}

TEST(InlineDispatch, AsyncFanoutRunsAfterRootInBindingOrder) {
  ScopedDispatchEnv env(std::nullopt);
  time::VirtualClock clock;
  std::mutex log_mu;
  std::vector<std::string> log;
  Stack stack;
  std::vector<const Microprotocol*> members;
  EventType ev("Fan");
  for (const char* name : {"c", "a", "b"}) {
    auto& mp = stack.emplace<LoggingMp>(name, log, log_mu);
    stack.bind(ev, *mp.handler);
    members.push_back(&mp);
  }
  Runtime rt(stack, virtual_opts(clock));
  auto h = rt.spawn_isolated(Isolation::basic(members), [&](Context& ctx) {
    log.push_back("root-begin");
    ctx.async_trigger_all(ev);
    log.push_back("root-end");
  });
  EXPECT_TRUE(h.done());
  EXPECT_EQ(log, (std::vector<std::string>{"root-begin", "root-end", "c", "a", "b"}));
}

TEST(InlineDispatch, SpawnInsideHandlerRunsAfterSpawnerCompletes) {
  // The nested computation shares `shared` with its spawner, so under
  // VCAbasic it must wait for the spawner's version release: had it run
  // nested, or ahead of the spawner's queued async task, it would block
  // this single thread on itself.
  ScopedDispatchEnv env(std::nullopt);
  time::VirtualClock clock;
  std::mutex log_mu;
  std::vector<std::string> log;
  Stack stack;
  auto& shared = stack.emplace<LoggingMp>("shared", log, log_mu);
  EventType shared_ev("Shared");
  stack.bind(shared_ev, *shared.handler);
  RuntimeOptions opts = virtual_opts(clock);
  opts.record_trace = true;
  Runtime rt(stack, opts);
  ComputationHandle nested;
  auto outer = rt.spawn_isolated(Isolation::basic({&shared}), [&](Context& ctx) {
    log.push_back("outer-root");
    nested = ctx.runtime().spawn_isolated(Isolation::basic({&shared}), [&](Context& inner) {
      log.push_back("nested-root");
      inner.trigger(shared_ev);
    });
    EXPECT_FALSE(nested.done());
    ctx.async_trigger(shared_ev);
  });
  EXPECT_TRUE(outer.done());
  ASSERT_TRUE(nested.valid());
  EXPECT_TRUE(nested.done());
  EXPECT_EQ(log, (std::vector<std::string>{"outer-root", "shared", "nested-root", "shared"}));
  testing::expect_isolated(rt);
}

TEST(InlineDispatch, ExplicitChoicesEnvAndStepHookStillResolve) {
  time::VirtualClock clock;
  Stack stack;
  stack.emplace<ProbeMp>("p");
  const auto resolve = [&](RuntimeOptions o) { return Runtime(stack, o).dispatch_impl(); };
  {
    ScopedDispatchEnv env(std::nullopt);
    RuntimeOptions o = virtual_opts(clock);
    o.dispatch_impl = DispatchImpl::kExecutor;
    EXPECT_EQ(resolve(o), DispatchImpl::kExecutor);
    o.dispatch_impl = DispatchImpl::kElasticPool;
    EXPECT_EQ(resolve(o), DispatchImpl::kElasticPool);
    NullHook hook;
    o.dispatch_impl = DispatchImpl::kAuto;
    o.step_hook = &hook;
    EXPECT_EQ(resolve(o), DispatchImpl::kElasticPool);
    // The wall clock keeps the executor as its default.
    EXPECT_EQ(resolve(RuntimeOptions{}), DispatchImpl::kExecutor);
  }
  {
    ScopedDispatchEnv env(std::string("pool"));
    EXPECT_EQ(resolve(virtual_opts(clock)), DispatchImpl::kElasticPool);
    EXPECT_EQ(resolve(RuntimeOptions{}), DispatchImpl::kElasticPool);
  }
}

}  // namespace
}  // namespace samoa
