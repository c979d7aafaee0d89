// Unit tests for the core kernel: events, messages, microprotocols,
// stacks/bindings, triggers, computations and runtime lifecycle.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/errors.hpp"
#include "core/runtime.hpp"
#include "verify/checker.hpp"

namespace samoa {
namespace {

TEST(EventType, IdentityIsPerInstance) {
  EventType a("X"), b("X");
  EXPECT_EQ(a.name(), "X");
  EXPECT_FALSE(a == b);  // same name, distinct types (J-SAMOA semantics)
  EventType c = a;
  EXPECT_TRUE(a == c);
}

TEST(Message, TypedPayloadRoundTrip) {
  auto m = Message::of(std::string("hello"));
  EXPECT_EQ(m.as<std::string>(), "hello");
  EXPECT_TRUE(m.holds<std::string>());
  EXPECT_FALSE(m.holds<int>());
}

TEST(Message, WrongTypeThrows) {
  auto m = Message::of(42);
  EXPECT_THROW(m.as<std::string>(), MessageTypeError);
}

TEST(Message, EmptyMessage) {
  Message m;
  EXPECT_TRUE(m.empty());
  EXPECT_THROW(m.as<int>(), MessageTypeError);
}

TEST(Message, CopiesAliasOnePayload) {
  const auto m = Message::of(std::vector<int>{1, 2, 3});
  const Message copy = m;
  Message assigned;
  assigned = copy;
  EXPECT_EQ(&copy.as<std::vector<int>>(), &m.as<std::vector<int>>());
  EXPECT_EQ(&assigned.as<std::vector<int>>(), &m.as<std::vector<int>>());
  const Message moved = std::move(assigned);
  EXPECT_EQ(&moved.as<std::vector<int>>(), &m.as<std::vector<int>>());
  EXPECT_EQ(m.as<std::vector<int>>(), (std::vector<int>{1, 2, 3}));
}

TEST(Message, WrongTypeErrorNamesBothTypes) {
  const auto m = Message::of(42);
  try {
    (void)m.as<std::string>();
    FAIL() << "as<std::string>() on an int payload did not throw";
  } catch (const MessageTypeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(typeid(int).name()), std::string::npos) << what;
    EXPECT_NE(what.find(typeid(std::string).name()), std::string::npos) << what;
  }
  try {
    (void)Message{}.as<int>();
    FAIL() << "as<int>() on an empty message did not throw";
  } catch (const MessageTypeError& e) {
    EXPECT_NE(std::string(e.what()).find("<empty>"), std::string::npos) << e.what();
  }
}

TEST(Message, HoldsMatchesTheExactTypeOnly) {
  struct Base {
    int x = 0;
  };
  struct Derived : Base {};
  const auto d = Message::of(Derived{});
  EXPECT_TRUE(d.holds<Derived>());
  EXPECT_FALSE(d.holds<Base>());
  EXPECT_THROW((void)d.as<Base>(), MessageTypeError);
  const auto i = Message::of(7);
  EXPECT_TRUE(i.holds<int>());
  EXPECT_FALSE(i.holds<long>());
  EXPECT_FALSE(i.holds<unsigned>());
  EXPECT_FALSE(Message{}.holds<int>());
}

/// Minimal microprotocol: one counter, one handler that bumps it.
class CounterMp : public Microprotocol {
 public:
  explicit CounterMp(std::string name) : Microprotocol(std::move(name)) {
    bump = &register_handler("bump", [this](Context&, const Message& m) {
      count += m.empty() ? 1 : m.as<int>();
    });
  }
  const Handler* bump = nullptr;
  int count = 0;
};

TEST(Microprotocol, HandlerRegistrationAndLookup) {
  CounterMp mp("c");
  EXPECT_EQ(mp.name(), "c");
  EXPECT_EQ(mp.handlers().size(), 1u);
  EXPECT_EQ(mp.find_handler("bump"), mp.bump);
  EXPECT_EQ(mp.find_handler("nope"), nullptr);
  EXPECT_EQ(&mp.bump->owner(), &mp);
}

TEST(Microprotocol, DuplicateHandlerNameThrows) {
  class Bad : public Microprotocol {
   public:
    Bad() : Microprotocol("bad") {
      register_handler("h", [](Context&, const Message&) {});
      register_handler("h", [](Context&, const Message&) {});
    }
  };
  EXPECT_THROW(Bad{}, ConfigError);
}

TEST(Stack, BindAndLookup) {
  Stack stack;
  auto& mp = stack.emplace<CounterMp>("c");
  EventType ev("Bump");
  stack.bind(ev, *mp.bump);
  ASSERT_EQ(stack.bound_handlers(ev.id()).size(), 1u);
  EXPECT_EQ(stack.bound_handlers(ev.id())[0], mp.bump);
  EXPECT_TRUE(stack.bound_handlers(EventType("Other").id()).empty());
}

TEST(Stack, BindAfterSealThrows) {
  Stack stack;
  auto& mp = stack.emplace<CounterMp>("c");
  EventType ev("Bump");
  stack.seal();
  EXPECT_THROW(stack.bind(ev, *mp.bump), ConfigError);
}

TEST(Stack, BindForeignHandlerThrows) {
  Stack s1, s2;
  auto& mp = s1.emplace<CounterMp>("c");
  EventType ev("Bump");
  EXPECT_THROW(s2.bind(ev, *mp.bump), ConfigError);
}

TEST(Stack, FindByIds) {
  Stack stack;
  auto& mp = stack.emplace<CounterMp>("c");
  EXPECT_EQ(stack.find(mp.id()), &mp);
  EXPECT_EQ(stack.find_handler(mp.bump->id()), mp.bump);
  EXPECT_EQ(stack.find(MicroprotocolId{}), nullptr);
  EXPECT_EQ(stack.find_handler(HandlerId{}), nullptr);
}

struct Fixture {
  Stack stack;
  CounterMp* mp;
  EventType bump{"Bump"};

  explicit Fixture() {
    mp = &stack.emplace<CounterMp>("c");
    stack.bind(bump, *mp->bump);
  }
};

TEST(Runtime, SyncTriggerRunsHandler) {
  Fixture f;
  Runtime rt(f.stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  auto h = rt.spawn_isolated(Isolation::basic({f.mp}),
                             [&](Context& ctx) { ctx.trigger(f.bump, Message::of(5)); });
  h.wait();
  EXPECT_EQ(f.mp->count, 5);
  EXPECT_EQ(rt.stats().handler_calls.value(), 1u);
  EXPECT_EQ(rt.stats().spawned.value(), 1u);
  EXPECT_EQ(rt.stats().completed.value(), 1u);
}

TEST(Runtime, AsyncTriggerRunsHandler) {
  Fixture f;
  Runtime rt(f.stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  auto h = rt.spawn_isolated(Isolation::basic({f.mp}),
                             [&](Context& ctx) { ctx.async_trigger(f.bump, Message::of(3)); });
  h.wait();
  EXPECT_EQ(f.mp->count, 3);
}

TEST(Runtime, TriggerWithZeroBindingsThrows) {
  Fixture f;
  EventType unbound("Unbound");
  Runtime rt(f.stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  auto h = rt.spawn_isolated(Isolation::basic({f.mp}),
                             [&](Context& ctx) { ctx.trigger(unbound); });
  EXPECT_THROW(h.wait(), ConfigError);
  EXPECT_TRUE(h.failed());
}

TEST(Runtime, TriggerWithMultipleBindingsThrows) {
  Stack stack;
  auto& a = stack.emplace<CounterMp>("a");
  auto& b = stack.emplace<CounterMp>("b");
  EventType ev("Multi");
  stack.bind(ev, *a.bump);
  stack.bind(ev, *b.bump);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  auto h = rt.spawn_isolated(Isolation::basic({&a, &b}),
                             [&](Context& ctx) { ctx.trigger(ev); });
  EXPECT_THROW(h.wait(), ConfigError);
}

TEST(Runtime, TriggerAllFiresInBindingOrder) {
  Stack stack;
  std::vector<std::string> order;
  class Rec : public Microprotocol {
   public:
    Rec(std::string n, std::vector<std::string>& order) : Microprotocol(n) {
      h = &register_handler("h", [this, &order](Context&, const Message&) {
        order.push_back(name());
      });
    }
    const Handler* h;
  };
  auto& a = stack.emplace<Rec>("a", order);
  auto& b = stack.emplace<Rec>("b", order);
  auto& c = stack.emplace<Rec>("c", order);
  EventType ev("All");
  stack.bind(ev, *b.h);
  stack.bind(ev, *a.h);
  stack.bind(ev, *c.h);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  rt.spawn_isolated(Isolation::basic({&a, &b, &c}),
                    [&](Context& ctx) { ctx.trigger_all(ev); })
      .wait();
  EXPECT_EQ(order, (std::vector<std::string>{"b", "a", "c"}));
}

TEST(Runtime, TriggerAllWithZeroBindingsIsNoop) {
  Fixture f;
  EventType unbound("Unbound");
  Runtime rt(f.stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  auto h = rt.spawn_isolated(Isolation::basic({f.mp}),
                             [&](Context& ctx) { ctx.trigger_all(unbound); });
  EXPECT_NO_THROW(h.wait());
}

TEST(Runtime, UndeclaredMicroprotocolThrowsIsolationError) {
  Stack stack;
  auto& a = stack.emplace<CounterMp>("a");
  auto& b = stack.emplace<CounterMp>("b");
  EventType eva("A"), evb("B");
  stack.bind(eva, *a.bump);
  stack.bind(evb, *b.bump);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  // Declares only {a} but calls into b.
  auto h = rt.spawn_isolated(Isolation::basic({&a}), [&](Context& ctx) {
    ctx.trigger(eva);
    ctx.trigger(evb);
  });
  EXPECT_THROW(h.wait(), IsolationError);
  EXPECT_EQ(a.count, 1);  // first call went through
  EXPECT_EQ(b.count, 0);
}

TEST(Runtime, OverDeclaredMicroprotocolIsFine) {
  // "There is no problem if some microprotocol declared in M is not called."
  Stack stack;
  auto& a = stack.emplace<CounterMp>("a");
  auto& b = stack.emplace<CounterMp>("b");
  EventType eva("A");
  stack.bind(eva, *a.bump);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  auto h = rt.spawn_isolated(Isolation::basic({&a, &b}),
                             [&](Context& ctx) { ctx.trigger(eva); });
  EXPECT_NO_THROW(h.wait());
  EXPECT_EQ(a.count, 1);
}

TEST(Runtime, HandlerErrorsPropagateToWait) {
  Stack stack;
  class Thrower : public Microprotocol {
   public:
    Thrower() : Microprotocol("thrower") {
      h = &register_handler("boom", [](Context&, const Message&) {
        throw std::runtime_error("boom");
      });
    }
    const Handler* h;
  };
  auto& t = stack.emplace<Thrower>();
  EventType ev("Boom");
  stack.bind(ev, *t.h);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});

  auto sync = rt.spawn_isolated(Isolation::basic({&t}),
                                [&](Context& ctx) { ctx.trigger(ev); });
  EXPECT_THROW(sync.wait(), std::runtime_error);

  auto async = rt.spawn_isolated(Isolation::basic({&t}),
                                 [&](Context& ctx) { ctx.async_trigger(ev); });
  EXPECT_THROW(async.wait(), std::runtime_error);
}

TEST(Runtime, FailedComputationStillReleasesVersions) {
  // A crashing computation must not wedge the next one (never-abort +
  // Step 3 always runs).
  Fixture f;
  EventType unbound("Unbound");
  Runtime rt(f.stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  auto bad = rt.spawn_isolated(Isolation::basic({f.mp}),
                               [&](Context& ctx) { ctx.trigger(unbound); });
  EXPECT_THROW(bad.wait(), ConfigError);
  auto good = rt.spawn_isolated(Isolation::basic({f.mp}),
                                [&](Context& ctx) { ctx.trigger(f.bump); });
  EXPECT_TRUE(good.wait_for(std::chrono::milliseconds(5000)));
  EXPECT_EQ(f.mp->count, 1);
}

TEST(Runtime, NestedSyncTriggers) {
  Stack stack;
  class Outer : public Microprotocol {
   public:
    Outer(EventType inner_ev) : Microprotocol("outer"), inner_ev_(inner_ev) {
      h = &register_handler("h", [this](Context& ctx, const Message&) {
        ctx.trigger(inner_ev_);
      });
    }
    const Handler* h;
   private:
    EventType inner_ev_;
  };
  EventType inner_ev("Inner");
  auto& inner = stack.emplace<CounterMp>("inner");
  auto& outer = stack.emplace<Outer>(inner_ev);
  EventType outer_ev("Outer");
  stack.bind(outer_ev, *outer.h);
  stack.bind(inner_ev, *inner.bump);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  rt.spawn_isolated(Isolation::basic({&outer, &inner}),
                    [&](Context& ctx) { ctx.trigger(outer_ev); })
      .wait();
  EXPECT_EQ(inner.count, 1);
}

TEST(Runtime, DrainWaitsForAllComputations) {
  Fixture f;
  Runtime rt(f.stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  for (int i = 0; i < 20; ++i) {
    rt.spawn_isolated(Isolation::basic({f.mp}),
                      [&](Context& ctx) { ctx.async_trigger(f.bump); });
  }
  rt.drain();
  EXPECT_EQ(f.mp->count, 20);
}

TEST(Runtime, TraceRecordsRun) {
  Fixture f;
  Runtime rt(f.stack, RuntimeOptions{.policy = CCPolicy::kVCABasic, .record_trace = true});
  rt.spawn_isolated(Isolation::basic({f.mp}),
                    [&](Context& ctx) { ctx.trigger(f.bump); })
      .wait();
  rt.drain();
  ASSERT_NE(rt.trace(), nullptr);
  auto events = rt.trace()->snapshot();
  // spawn, issue, start, end, done.
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].phase, TracePhase::kSpawn);
  EXPECT_EQ(events[1].phase, TracePhase::kIssue);
  EXPECT_EQ(events[2].phase, TracePhase::kStart);
  EXPECT_EQ(events[3].phase, TracePhase::kEnd);
  EXPECT_EQ(events[4].phase, TracePhase::kDone);
  auto report = check_isolation(events);
  EXPECT_TRUE(report.isolated);
  EXPECT_TRUE(report.serial);
}

TEST(Runtime, ContextExposesEnvironment) {
  Fixture f;
  Runtime rt(f.stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  rt.spawn_isolated(Isolation::basic({f.mp}), [&](Context& ctx) {
      EXPECT_EQ(&ctx.runtime(), &rt);
      EXPECT_EQ(&ctx.stack(), &f.stack);
      EXPECT_FALSE(ctx.current_handler().valid());  // root expression
    }).wait();
}

TEST(Isolation, BasicDeduplicatesMembers) {
  Stack stack;
  auto& a = stack.emplace<CounterMp>("a");
  auto iso = Isolation::basic({&a, &a, &a});
  EXPECT_EQ(iso.members().size(), 1u);
  EXPECT_TRUE(iso.declares(a.id()));
}

TEST(Isolation, BoundRejectsZeroAndDuplicates) {
  Stack stack;
  auto& a = stack.emplace<CounterMp>("a");
  EXPECT_THROW(Isolation::bound({{&a, 0}}), ConfigError);
  EXPECT_THROW(Isolation::bound({{&a, 1}, {&a, 2}}), ConfigError);
}

TEST(Isolation, RouteResolutionFillsMembers) {
  Stack stack;
  auto& a = stack.emplace<CounterMp>("a");
  auto& b = stack.emplace<CounterMp>("b");
  auto iso = Isolation::route(RouteSpec{}.entry(*a.bump).edge(*a.bump, *b.bump));
  iso.resolve_route(stack);
  EXPECT_EQ(iso.members().size(), 2u);
  EXPECT_TRUE(iso.declares(a.id()));
  EXPECT_TRUE(iso.declares(b.id()));
  EXPECT_EQ(iso.route_owners().at(a.bump->id()), a.id());
}

TEST(Isolation, EmptyRouteThrows) {
  Stack stack;
  auto iso = Isolation::route(RouteSpec{});
  EXPECT_THROW(iso.resolve_route(stack), ConfigError);
}

}  // namespace
}  // namespace samoa
