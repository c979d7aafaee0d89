// Tests of dispatch: where a runtime runs computation tasks follows from
// its inputs alone — inline on the spawning thread under a VirtualClock
// with no step hook, on the runtime's elastic pool everywhere else — and
// each substrate keeps runnable work flowing.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cc/controller.hpp"
#include "core/runtime.hpp"
#include "tests/test_support.hpp"
#include "time/clock.hpp"
#include "util/thread_pool.hpp"

namespace samoa {
namespace {

using testing::BlockingMp;
using testing::LoggingMp;
using testing::ProbeMp;

class NullHook final : public StepHook {
 public:
  std::uint64_t on_task_submitted(ComputationId) override { return 0; }
  void on_task_started(ComputationId, std::uint64_t) override {}
  void on_task_finished(ComputationId) override {}
  void step_point(ComputationId, const char*) override {}
  void resync(ComputationId) override {}
};

RuntimeOptions virtual_opts(time::ClockSource& clock) {
  RuntimeOptions o;
  o.policy = CCPolicy::kVCABasic;
  o.clock = &clock;
  return o;
}

/// Where a root expression ran, as seen from inside it.
struct RootSite {
  std::thread::id thread;
  const ElasticThreadPool* pool = nullptr;
};

RootSite spawn_and_locate(Runtime& rt, const Microprotocol& mp, bool& done_on_return) {
  RootSite site;
  auto h = rt.spawn_isolated(Isolation::basic({&mp}), [&](Context&) {
    site.thread = std::this_thread::get_id();
    site.pool = ElasticThreadPool::current();
  });
  done_on_return = h.done();
  h.wait();
  rt.drain();
  return site;
}

// --- Which substrate runs the root ---------------------------------------

TEST(Dispatch, VirtualClockRunsRootOnTheSpawningThread) {
  time::VirtualClock clock;
  Stack stack;
  auto& probe = stack.emplace<ProbeMp>("p");
  Runtime rt(stack, virtual_opts(clock));
  bool done_on_return = false;
  const RootSite site = spawn_and_locate(rt, probe, done_on_return);
  EXPECT_TRUE(done_on_return) << "the computation must be complete when spawn_isolated returns";
  EXPECT_EQ(site.thread, std::this_thread::get_id());
  EXPECT_EQ(site.pool, nullptr);
  EXPECT_EQ(rt.pool().peak_thread_count(), 0u) << "an inline runtime starts no pool threads";
}

TEST(Dispatch, WallClockRunsRootOnAPoolWorker) {
  Stack stack;
  auto& probe = stack.emplace<ProbeMp>("p");
  Runtime rt(stack, RuntimeOptions{});
  // The pool's floor of two workers is started up front.
  EXPECT_EQ(rt.pool().peak_thread_count(), 2u);
  bool done_on_return = false;
  const RootSite site = spawn_and_locate(rt, probe, done_on_return);
  EXPECT_NE(site.thread, std::this_thread::get_id());
  EXPECT_EQ(site.pool, &rt.pool());
}

TEST(Dispatch, StepHookRunsRootOnAPoolWorkerOnEitherClock) {
  // The explorer's token barrier needs every task independently
  // startable, so a hook overrides the virtual clock's inline default.
  NullHook hook;
  time::VirtualClock clock;
  Stack stack;
  auto& probe = stack.emplace<ProbeMp>("p");
  for (time::ClockSource* c : {static_cast<time::ClockSource*>(nullptr),
                               static_cast<time::ClockSource*>(&clock)}) {
    SCOPED_TRACE(c == nullptr ? "wall clock" : "virtual clock");
    RuntimeOptions o;
    o.clock = c;
    o.step_hook = &hook;
    Runtime rt(stack, o);
    bool done_on_return = false;
    const RootSite site = spawn_and_locate(rt, probe, done_on_return);
    EXPECT_NE(site.thread, std::this_thread::get_id());
    EXPECT_EQ(site.pool, &rt.pool());
  }
}

// --- The pool keeps runnable work flowing --------------------------------

TEST(PoolDispatch, BlockedHandlerDoesNotStarveRunnableWork) {
  // A handler parked in an instrumented wait releases its worker's
  // runnable slot: new computations keep completing while it stays parked.
  Stack stack;
  auto& blocker = stack.emplace<BlockingMp>("blocker");
  auto& probe = stack.emplace<ProbeMp>("probe");
  EventType block_ev("Block");
  EventType probe_ev("Probe");
  stack.bind(block_ev, *blocker.handler);
  stack.bind(probe_ev, *probe.handler);
  Runtime rt(stack, RuntimeOptions{});
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
  EXPECT_FALSE(blocked.done());
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

TEST(PoolDispatch, ThrowingAsyncTaskIsRecordedOnItsComputation) {
  // An async handler that throws has no caller: the error is rethrown from
  // its computation's wait(), and the microprotocol stays usable.
  Stack stack;
  auto& thrower = stack.emplace<ThrowerMp>("thrower");
  EventType boom_ev("Boom");
  EventType ok_ev("Ok");
  stack.bind(boom_ev, *thrower.boom);
  stack.bind(ok_ev, *thrower.ok);
  Runtime rt(stack, RuntimeOptions{});
  auto failing = rt.spawn_isolated(Isolation::basic({&thrower}),
                                   [&](Context& ctx) { ctx.async_trigger(boom_ev); });
  EXPECT_THROW(failing.wait(), Boom);
  auto ok = rt.spawn_isolated(Isolation::basic({&thrower}),
                              [&](Context& ctx) { ctx.trigger(ok_ev); });
  ok.wait();
  EXPECT_EQ(thrower.ok_calls.load(), 1);
  rt.drain();
}

// --- Inline substrate (virtual time) -------------------------------------

TEST(InlineDispatch, VirtualClockRunsSpawnsToCompletion) {
  time::VirtualClock clock;
  Stack stack;
  auto& probe = stack.emplace<ProbeMp>("probe");
  EventType ev("Probe");
  stack.bind(ev, *probe.handler);
  Runtime rt(stack, virtual_opts(clock));
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

}  // namespace
}  // namespace samoa
