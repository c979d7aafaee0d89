// Component-level tests of the group-communication microprotocols on
// small clusters: RelComm dedup/acks/retransmit give-up, RelCast
// rebroadcast semantics, ABcast batching, consensus under coordinator
// crash and late messages after a decision, the one-detector stack, and
// Outbox ordering.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/errors.hpp"
#include "gc/group_node.hpp"
#include "time/clock.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "virtual_fleet.hpp"

namespace samoa::gc {
namespace {

using net::LinkOptions;
using net::SimNetwork;

template <typename Pred>
bool wait_until(Pred pred, std::chrono::milliseconds timeout = std::chrono::milliseconds(20000)) {
  const auto deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Records the payload of every event bound to it.
class Tap : public Microprotocol {
 public:
  explicit Tap(std::string name) : Microprotocol(std::move(name)) {
    record = &register_handler("record", [this](Context&, const Message& m) {
      std::unique_lock lock(mu);
      seen.push_back(m);
    });
  }

  std::vector<Message> take() {
    std::unique_lock lock(mu);
    return std::exchange(seen, {});
  }

  const Handler* record = nullptr;

 private:
  std::mutex mu;
  std::vector<Message> seen;
};

/// One microprotocol under test on a bare stack, with taps standing in for
/// the rest of the node. Every call to run() is one isolated computation
/// declaring the whole stack.
struct BareStack {
  GcOptions opts;
  GcEvents events;
  Stack stack;
  std::vector<const Microprotocol*> all;
  std::unique_ptr<Runtime> rt;

  void start() {
    for (const auto& mp : stack.microprotocols()) all.push_back(mp.get());
    rt = std::make_unique<Runtime>(stack);
  }
  void run(const EventType& ev, Message msg) {
    rt->spawn_isolated(Isolation::basic(all), [&ev, msg](Context& ctx) {
        ctx.trigger(ev, msg);
      }).wait();
  }
};

struct Pair {
  SimNetwork net;
  std::vector<std::unique_ptr<GroupNode>> nodes;

  explicit Pair(GcOptions opts = {},
                LinkOptions links = LinkOptions{.base_latency = std::chrono::microseconds(80)},
                int n = 2)
      : net(links, 5) {
    for (int i = 0; i < n; ++i) nodes.push_back(std::make_unique<GroupNode>(net, opts));
    std::vector<SiteId> members;
    for (auto& node : nodes) members.push_back(node->id());
    for (auto& node : nodes) node->start(View(1, members));
  }
};

TEST(RelCommComponent, DuplicateDataSuppressed) {
  // With a lossy ack path the sender retransmits; the receiver must
  // deliver each payload exactly once.
  GcOptions opts;
  opts.retransmit_interval = std::chrono::microseconds(1000);
  opts.retransmit_timeout = std::chrono::microseconds(1200);
  Pair p(opts);
  // Drop most acks from node1 back to node0 to force duplicates.
  p.net.set_link(p.nodes[1]->id(), p.nodes[0]->id(),
                 LinkOptions{.base_latency = std::chrono::microseconds(80),
                             .drop_probability = 0.7});
  for (int i = 0; i < 5; ++i) p.nodes[0]->rbcast("dup" + std::to_string(i));
  ASSERT_TRUE(wait_until([&] { return p.nodes[1]->sink().rdelivered().size() >= 5; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(p.nodes[1]->sink().rdelivered().size(), 5u) << "duplicate delivery";
  EXPECT_GT(p.nodes[0]->rel_comm().retransmissions(), 0u);
}

TEST(RelCommComponent, AcksClearRetransmitBuffer) {
  Pair p;
  p.nodes[0]->rbcast("acked");
  ASSERT_TRUE(wait_until([&] { return p.nodes[1]->sink().rdelivered().size() == 1; }));
  EXPECT_TRUE(wait_until([&] { return p.nodes[0]->rel_comm().unacked_in_flight() == 0; }))
      << "acked messages still buffered";
}

TEST(RelCommComponent, EvictedTargetDroppedFromBuffer) {
  GcOptions opts;
  opts.retransmit_interval = std::chrono::microseconds(1000);
  opts.retransmit_timeout = std::chrono::microseconds(1500);
  Pair p(opts, LinkOptions{.base_latency = std::chrono::microseconds(80)}, 3);
  // Partition node2 so sends to it stay unacked, then evict it.
  p.net.set_partitioned(p.nodes[0]->id(), p.nodes[2]->id(), true);
  p.nodes[0]->rbcast("to-all");
  ASSERT_TRUE(wait_until([&] { return p.nodes[0]->rel_comm().unacked_in_flight() > 0; }));
  p.nodes[0]->request_leave(p.nodes[2]->id());
  EXPECT_TRUE(wait_until([&] { return p.nodes[0]->rel_comm().unacked_in_flight() == 0; }))
      << "retransmit buffer kept entries for an evicted site";
}

TEST(RelCommComponent, DedupRestartsForAnEvictedPeer) {
  // An evicted peer that rejoins numbers its packets from 1 again; its old
  // dedup run must not swallow them.
  const SiteId self(0), peer(1);
  BareStack b;
  auto& rc = b.stack.emplace<RelComm>(b.opts, b.events, self, View(1, {self, peer}));
  auto& acks = b.stack.emplace<Tap>("acks");
  auto& up = b.stack.emplace<Tap>("up");
  b.stack.bind(b.events.rc_data, *rc.recv_data_handler());
  b.stack.bind(b.events.view_change, *rc.view_change_handler());
  b.stack.bind(b.events.transport_send, *acks.record);
  b.stack.bind(b.events.from_rcomm, *up.record);
  b.start();
  auto data = [&](std::uint64_t seq) {
    b.run(b.events.rc_data,
          Message::of(FromWire{peer, Wire{RcData{seq, AppMessage{seq, "m", false}}}}));
  };

  data(1);
  data(2);
  data(1);  // duplicate
  EXPECT_EQ(up.take().size(), 2u);
  EXPECT_EQ(acks.take().size(), 3u) << "every copy is acknowledged";

  b.run(b.events.view_change, Message::of(View(2, {self})));
  b.run(b.events.view_change, Message::of(View(3, {self, peer})));
  data(1);
  data(2);
  data(2);  // duplicate in the new lifetime
  EXPECT_EQ(up.take().size(), 2u) << "the rejoined peer's fresh seqs were swallowed";
}

TEST(RelCastComponent, EveryMemberRebroadcastsOnce) {
  Pair p(GcOptions{}, LinkOptions{.base_latency = std::chrono::microseconds(80)}, 3);
  p.nodes[0]->rbcast("fanout");
  ASSERT_TRUE(wait_until([&] {
    for (auto& n : p.nodes) {
      if (n->sink().rdelivered().size() != 1) return false;
    }
    return true;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // bcast on the origin + one rebroadcast per member on first receipt.
  std::uint64_t broadcasts = 0;
  for (auto& n : p.nodes) broadcasts += n->rel_cast().broadcasts();
  EXPECT_EQ(broadcasts, 4u);
}

TEST(RelCastComponent, ConsensusChannelIsNotRelayed) {
  // ABcast payloads are ordered by consensus, whose ACCEPT and DECIDE carry
  // the whole batch: the origin's bcast is the only broadcast.
  Pair p(GcOptions{}, LinkOptions{.base_latency = std::chrono::microseconds(80)}, 3);
  p.nodes[0]->abcast("ordered");
  ASSERT_TRUE(wait_until([&] {
    for (auto& n : p.nodes) {
      if (n->sink().adelivered().size() != 1) return false;
    }
    return true;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::uint64_t broadcasts = 0;
  for (auto& n : p.nodes) broadcasts += n->rel_cast().broadcasts();
  EXPECT_EQ(broadcasts, 1u);
}

TEST(ABcastComponent, BatchesRespectMsgIdOrder) {
  // Burst from one site: decided batches are sorted by MsgId, so the
  // delivery order must equal submission order for a single origin.
  Pair p(GcOptions{}, LinkOptions{.base_latency = std::chrono::microseconds(80)}, 3);
  for (int i = 0; i < 8; ++i) p.nodes[0]->abcast("b" + std::to_string(i));
  ASSERT_TRUE(wait_until([&] { return p.nodes[2]->sink().adelivered().size() == 8; }));
  const auto got = p.nodes[2]->sink().adelivered();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(got[i].data, "b" + std::to_string(i));
  }
}

TEST(ABcastComponent, InstanceCountBounded) {
  // Batching: a burst must not burn one consensus instance per message.
  // Calm timers: under sanitizer slowdowns the default 2ms periodic load
  // starves the burst and the test measures the scheduler instead.
  GcOptions opts;
  opts.heartbeat_interval = std::chrono::microseconds(20'000);
  opts.fd_timeout = std::chrono::microseconds(200'000);
  opts.cs_retry_interval = std::chrono::microseconds(50'000);
  opts.cs_retry_timeout = std::chrono::microseconds(100'000);
  Pair p(opts, LinkOptions{.base_latency = std::chrono::microseconds(80)}, 3);
  for (int i = 0; i < 12; ++i) p.nodes[0]->abcast("x" + std::to_string(i));
  ASSERT_TRUE(wait_until([&] { return p.nodes[0]->sink().adelivered().size() == 12; }));
  EXPECT_LT(p.nodes[0]->ab().next_instance(), 12u)
      << "no batching happened: one instance per message";
}

TEST(ConsensusComponent, CoordinatorCrashRotatesViaSuspicion) {
  // Instance 1's coordinator is members[1]; crash it before proposing.
  // The failure detector must suspect it and the next coordinator
  // (members[2]) finishes the instance with the majority {0, 2}.
  GcOptions opts;
  opts.heartbeat_interval = std::chrono::microseconds(1000);
  opts.fd_timeout = std::chrono::microseconds(6000);
  opts.cs_retry_interval = std::chrono::microseconds(4000);
  opts.cs_retry_timeout = std::chrono::microseconds(6000);
  Pair p(opts, LinkOptions{.base_latency = std::chrono::microseconds(80)}, 3);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // heartbeats flowing
  p.nodes[1]->crash();
  p.nodes[0]->abcast("despite-crash");
  EXPECT_TRUE(wait_until(
      [&] {
        return p.nodes[0]->sink().adelivered().size() == 1 &&
               p.nodes[2]->sink().adelivered().size() == 1;
      },
      std::chrono::milliseconds(30000)))
      << "consensus did not rotate past the crashed coordinator";
  // A pre-crash heartbeat delivered late can revoke suspicion for one
  // check period; the site stays dead, so suspicion must re-form.
  EXPECT_TRUE(wait_until([&] { return p.nodes[0]->fd().is_suspected(p.nodes[1]->id()); }));
}

TEST(ConsensusComponent, RetryRecoversFromLostRounds) {
  // Very lossy links: rounds get lost; the retry timer must eventually
  // push an instance through (safety is unconditional, liveness via
  // retries).
  GcOptions opts;
  opts.retransmit_interval = std::chrono::microseconds(1000);
  opts.retransmit_timeout = std::chrono::microseconds(1500);
  opts.cs_retry_interval = std::chrono::microseconds(3000);
  opts.cs_retry_timeout = std::chrono::microseconds(5000);
  Pair p(opts,
         LinkOptions{.base_latency = std::chrono::microseconds(80), .drop_probability = 0.25},
         3);
  p.nodes[0]->abcast("lossy");
  EXPECT_TRUE(wait_until(
      [&] { return p.nodes[2]->sink().adelivered().size() == 1; },
      std::chrono::milliseconds(40000)))
      << "consensus never recovered under 25% loss";
}

TEST(ConsensusComponent, DecisionsIdenticalAcrossSites) {
  Pair p(GcOptions{}, LinkOptions{.base_latency = std::chrono::microseconds(80)}, 3);
  Rng rng(3);
  for (int i = 0; i < 6; ++i) {
    p.nodes[rng.next_below(3)]->abcast("d" + std::to_string(i));
  }
  ASSERT_TRUE(wait_until([&] {
    for (auto& n : p.nodes) {
      if (n->sink().adelivered().size() != 6) return false;
    }
    return true;
  }));
  const auto ref = p.nodes[0]->sink().adelivered();
  for (auto& n : p.nodes) {
    const auto got = n->sink().adelivered();
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].id, ref[i].id);
  }
}

TEST(ConsensusComponent, DecidedInstanceAnswersLateMessagesWithTheDecision) {
  // Deciding drops the instance's proposer state; the acceptor's copy of
  // the value must still answer every late message with the decision.
  const SiteId self(0), a(1), c(2);
  BareStack b;
  auto& cs = b.stack.emplace<Consensus>(b.opts, b.events, self, View(1, {self, a, c}));
  auto& sends = b.stack.emplace<Tap>("sends");
  auto& decided = b.stack.emplace<Tap>("decided");
  b.stack.bind(b.events.cs_propose, *cs.propose_handler());
  b.stack.bind(b.events.cs_wire, *cs.on_wire_handler());
  b.stack.bind(b.events.transport_send, *sends.record);
  b.stack.bind(b.events.cs_decided, *decided.record);
  b.start();
  auto wire = [&](SiteId from, Wire w) {
    b.run(b.events.cs_wire, Message::of(FromWire{from, std::move(w)}));
  };
  const ConsensusValue value{AppMessage{7, "seven", true}};

  // Instance 0 is coordinated by member_at(0) == self: run it to a decision.
  b.run(b.events.cs_propose, Message::of(CsPropose{0, value}));
  const auto prepares = sends.take();
  ASSERT_EQ(prepares.size(), 3u);
  const std::uint64_t round =
      std::get<CsPrepare>(prepares.front().as<TransportSend>().wire).round;
  wire(a, CsPromise{0, round, 0, std::nullopt});
  wire(c, CsPromise{0, round, 0, std::nullopt});
  wire(a, CsAccepted{0, round});
  wire(c, CsAccepted{0, round});
  wire(self, CsDecide{0, value});
  ASSERT_EQ(decided.take().size(), 1u);
  sends.take();

  auto expect_decide_to = [&](SiteId to) {
    const auto out = sends.take();
    ASSERT_EQ(out.size(), 1u);
    const auto& send = out.front().as<TransportSend>();
    EXPECT_EQ(send.to, to);
    const auto* d = std::get_if<CsDecide>(&send.wire);
    ASSERT_NE(d, nullptr) << "answered with " << wire_kind(send.wire);
    EXPECT_EQ(d->instance, 0u);
    EXPECT_EQ(d->value, value);
  };
  wire(a, CsPrepare{0, round + 5});
  expect_decide_to(a);
  wire(c, CsAccept{0, round + 7, ConsensusValue{AppMessage{8, "other", true}}});
  expect_decide_to(c);
  wire(a, CsPrepare{0, 0});  // round-0 decision pull
  expect_decide_to(a);
  EXPECT_TRUE(decided.take().empty()) << "a late message re-decided the instance";
}

TEST(FailureDetectorComponent, ViewChangePrunesEvictedBookkeeping) {
  // Regression: the viewChange handler used to leave last_heard_ and
  // suspected_ entries behind for evicted peers, so the detector kept
  // "suspecting" non-members forever (and kept their timestamps alive
  // across a later re-join, poisoning the fresh incarnation's timeout).
  GcOptions opts;
  opts.heartbeat_interval = std::chrono::microseconds(1000);
  opts.fd_timeout = std::chrono::microseconds(6000);
  Pair p(opts, LinkOptions{.base_latency = std::chrono::microseconds(80)}, 3);
  const SiteId victim = p.nodes[2]->id();
  ASSERT_TRUE(p.nodes[0]->fd().tracks(victim));
  p.nodes[2]->crash();
  ASSERT_TRUE(wait_until([&] { return p.nodes[0]->fd().is_suspected(victim); }));
  p.nodes[0]->request_leave(victim);
  EXPECT_TRUE(wait_until([&] { return !p.nodes[0]->fd().tracks(victim); }))
      << "last_heard_ entry survived the eviction";
  EXPECT_FALSE(p.nodes[0]->fd().is_suspected(victim))
      << "suspected_ entry survived the eviction";
}

TEST(FailureDetectorComponent, ViewChangeSeedsJoinerTimestamp) {
  // Regression: a fresh joiner had no last_heard_ seed, so the detector
  // skipped it until its first heartbeat arrived — a newcomer that died
  // immediately after joining was never suspected. The viewChange handler
  // must seed every new member at "now".
  //
  // The fleet runs on one VirtualClock, so its 1 ms heartbeats keep their
  // cadence however slowly the host runs (sanitizers, a loaded machine).
  using std::chrono::microseconds;
  time::VirtualClock clock;
  GcOptions opts;
  opts.heartbeat_interval = microseconds(1000);
  opts.fd_timeout = microseconds(8000);
  opts.clock = &clock;
  SimNetwork net(LinkOptions{.base_latency = microseconds(80)}, 5, &clock);
  net::TimerService script(&clock);
  std::vector<std::unique_ptr<GroupNode>> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(std::make_unique<GroupNode>(net, opts));
  auto joiner = std::make_unique<GroupNode>(net, opts);
  const SiteId newcomer = joiner->id();

  std::atomic<bool> tracked{false}, suspected{false};
  OneShotEvent done;
  {
    time::Pin setup(clock);
    std::vector<SiteId> members;
    for (auto& n : nodes) members.push_back(n->id());
    for (auto& n : nodes) n->start(View(1, members));
    joiner->start(View(1, {newcomer}));
    script.schedule(microseconds(1000), [&] { nodes[0]->request_join(newcomer); });
    // Site 0 is sampled every 100 us of virtual time. The newcomer is
    // killed the moment site 0 tracks it: the seed (not a received
    // heartbeat) must be what starts its timeout clock.
    script.schedule_periodic(microseconds(100), [&] {
      if (!tracked.load()) {
        if (!nodes[0]->fd().tracks(newcomer)) return;
        tracked.store(true);
        joiner->crash();
      } else if (nodes[0]->fd().is_suspected(newcomer)) {
        suspected.store(true);
        done.set();
      }
    });
    script.schedule(microseconds(1'000'000), [&] { done.set(); });  // horizon
  }
  done.wait();
  script.cancel_all();
  for (auto& n : nodes) n->stop_timers();
  joiner->stop_timers();
  ASSERT_TRUE(tracked.load()) << "joiner never seeded into last_heard_";
  EXPECT_TRUE(suspected.load()) << "joiner crash after join was never detected";
}

// --- One detector per stack -----------------------------------------------

class OneDetectorStack : public ::testing::TestWithParam<DetectorImpl> {
 protected:
  static bool heartbeat() { return GetParam() == DetectorImpl::kHeartbeat; }
};

TEST_P(OneDetectorStack, BuildsOnlyTheSelectedDetector) {
  GcOptions opts;
  opts.detector_impl = GetParam();
  SimNetwork net;
  GroupNode node(net, opts);
  if (heartbeat()) {
    EXPECT_EQ(&node.detector(), static_cast<Detector*>(&node.fd()));
    EXPECT_THROW(node.swim(), ConfigError);
  } else {
    EXPECT_EQ(&node.detector(), static_cast<Detector*>(&node.swim()));
    EXPECT_THROW(node.fd(), ConfigError);
  }
}

TEST_P(OneDetectorStack, OtherDetectorsPacketSpawnsNothing) {
  // A quiescent virtual-time pair: timers stopped, network drained. A
  // packet of the unbuilt detector's wire kind is dropped on arrival; one
  // of the built detector's kind (the control) runs one computation.
  using std::chrono::microseconds;
  time::VirtualClock clock;
  GcOptions opts;
  opts.detector_impl = GetParam();
  opts.clock = &clock;
  SimNetwork net(LinkOptions{.base_latency = microseconds(80)}, 5, &clock);
  GroupNode a(net, opts);
  GroupNode b(net, opts);
  {
    time::Pin setup(clock);
    a.start(View(1, {a.id(), b.id()}));
    b.start(View(1, {a.id(), b.id()}));
  }
  a.stop_timers();
  b.stop_timers();
  net.drain();
  a.drain();
  b.drain();

  const Wire hb{FdHeartbeat{1}};
  const Wire ping{SwimPing{1, {}}};
  const auto inject = [&](const Wire& wire) {
    const auto before = a.runtime().stats().spawned.value();
    net.send(b.id(), a.id(), Message::of(FromWire{b.id(), wire}));
    net.drain();
    a.drain();
    return a.runtime().stats().spawned.value() - before;
  };
  EXPECT_EQ(inject(heartbeat() ? ping : hb), 0u) << "the unbuilt detector's packet ran";
  EXPECT_EQ(inject(heartbeat() ? hb : ping), 1u) << "the built detector's packet was dropped";
}

TEST_P(OneDetectorStack, FleetConvergesWithCleanVsChecker) {
  // The churn harness (crash, evictions, flaps, a healed island) over a
  // small fleet, through whichever detector the stack built.
  testing::ChurnConfig cfg;
  cfg.sites = 10;
  cfg.seed = 3;
  cfg.detector = GetParam();
  // Heartbeat detection takes up to 2 * fd_timeout after last contact.
  cfg.detect_window = std::chrono::microseconds(60000);
  const auto out = testing::run_churn_fleet(cfg);
  ASSERT_TRUE(out.converged);
  EXPECT_TRUE(out.vs.ok()) << out.vs.describe();
  EXPECT_GT(out.suspicions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Detectors, OneDetectorStack,
                         ::testing::Values(DetectorImpl::kHeartbeat, DetectorImpl::kSwim),
                         [](const ::testing::TestParamInfo<DetectorImpl>& info) {
                           return info.param == DetectorImpl::kHeartbeat ? "Heartbeat" : "Swim";
                         });

TEST(Outbox, FlushesInQueueingOrder) {
  Stack stack;
  std::vector<std::string> log;
  class Rec : public Microprotocol {
   public:
    Rec(std::string n, std::vector<std::string>& log) : Microprotocol(n) {
      h = &register_handler("h", [this, &log](Context&, const Message& m) {
        log.push_back(name() + ":" + m.as<std::string>());
      });
    }
    const Handler* h;
  };
  auto& a = stack.emplace<Rec>("a", log);
  auto& b = stack.emplace<Rec>("b", log);
  EventType eva("A"), evb("B");
  stack.bind(eva, *a.h);
  stack.bind(evb, *b.h);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic});
  rt.spawn_isolated(Isolation::basic({&a, &b}), [&](Context& ctx) {
      Outbox out;
      out.trigger(evb, Message::of(std::string("1")));
      out.trigger(eva, Message::of(std::string("2")));
      out.trigger_all(evb, Message::of(std::string("3")));
      out.flush(ctx);
      out.flush(ctx);  // second flush is a no-op (entries cleared)
    }).wait();
  EXPECT_EQ(log, (std::vector<std::string>{"b:1", "a:2", "b:3"}));
}

}  // namespace
}  // namespace samoa::gc
