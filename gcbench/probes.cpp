#include "probes.hpp"

#include <optional>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "gc/wire.hpp"
#include "net/codec.hpp"
#include "net/sim_network.hpp"
#include "net/timer_service.hpp"
#include "time/clock.hpp"
#include "util/sync.hpp"

namespace gcbench {
namespace {

using namespace samoa;
using SteadyClock = std::chrono::steady_clock;

template <class F>
double ns_per_op(int reps, F&& fn) {
  const auto t0 = SteadyClock::now();
  for (int i = 0; i < reps; ++i) fn(i);
  return std::chrono::duration<double, std::nano>(SteadyClock::now() - t0).count() / reps;
}

gc::AppMessage workload_message(std::uint64_t id) {
  return gc::AppMessage{id, std::string(kPayloadBytes, 'x'), /*atomic=*/true};
}

/// One message of each kind the ordered-delivery path puts on the wire.
std::vector<gc::Wire> wire_mix(std::size_t batch) {
  gc::ConsensusValue value;
  for (std::size_t i = 0; i < batch; ++i) value.push_back(workload_message(1000 + i));
  return {gc::Wire{gc::RcData{42, workload_message(7)}}, gc::Wire{gc::RcAck{42}},
          gc::Wire{gc::CsAccept{9, 1, value}}, gc::Wire{gc::CsDecide{9, value}}};
}

void probe_codec(std::size_t batch, ProbeResults& p) {
  const auto mix = wire_mix(batch);
  std::vector<std::vector<std::uint8_t>> encoded;
  for (const auto& w : mix) encoded.push_back(net::encode_wire(SiteId(3), w));
  p.bytes_rcdata = encoded[0].size();
  constexpr int kReps = 20000;
  std::size_t sink = 0;
  p.encode_ns = ns_per_op(kReps, [&](int i) {
    sink += net::encode_wire(SiteId(3), mix[static_cast<std::size_t>(i) % mix.size()]).size();
  });
  p.decode_ns = ns_per_op(kReps, [&](int i) {
    sink += net::decode_wire(encoded[static_cast<std::size_t>(i) % encoded.size()]).wire.index();
  });
  if (sink == 0) p.bytes_rcdata = 0;  // keeps the loops observable
}

void probe_network(const WorkloadConfig& cfg, ProbeResults& p) {
  std::optional<time::VirtualClock> vclock;
  if (cfg.clock == ClockKind::kVirtual) vclock.emplace();
  // On the wall clock the link delay would be slept, not computed: use none.
  const auto latency = vclock ? cfg.base_latency : std::chrono::microseconds(0);
  net::SimNetwork net(net::LinkOptions{.base_latency = latency}, 1, vclock ? &*vclock : nullptr);
  const SiteId from = net.add_site([](const net::Packet&) {});
  const SiteId to = net.add_site([](const net::Packet&) {});
  const auto payload = Message::of(wire_mix(1)[0]);
  constexpr int kPackets = 20000;
  const auto t0 = SteadyClock::now();
  for (int i = 0; i < kPackets; ++i) net.send(from, to, payload);
  net.drain();
  p.net_us_per_packet =
      std::chrono::duration<double, std::micro>(SteadyClock::now() - t0).count() / kPackets;
}

void probe_timers(ProbeResults& p) {
  time::VirtualClock clock;
  net::TimerService timers(&clock);
  constexpr int kFires = 20000;
  int fired = 0;  // callbacks run one at a time on the service thread
  OneShotEvent done;
  const auto t0 = SteadyClock::now();
  {
    time::Pin arm(clock);
    for (int i = 1; i <= kFires; ++i) {
      timers.schedule(std::chrono::microseconds(i), [&] {
        if (++fired == kFires) done.set();
      });
    }
  }
  done.wait();
  p.timer_us_per_fire =
      std::chrono::duration<double, std::micro>(SteadyClock::now() - t0).count() / kFires;
}

class NopProtocol : public Microprotocol {
 public:
  NopProtocol() : Microprotocol("probe") {
    handle = &register_handler("handle", [](Context&, const Message&) {});
  }
  const Handler* handle = nullptr;
};

void probe_runtime(const WorkloadConfig& cfg, ProbeResults& p) {
  std::optional<time::VirtualClock> vclock;
  if (cfg.clock == ClockKind::kVirtual) vclock.emplace();
  Stack stack;
  EventType ev("Probe");
  auto& mp = stack.emplace<NopProtocol>();
  stack.bind(ev, *mp.handle);
  Runtime rt(stack, RuntimeOptions{.policy = CCPolicy::kVCABasic, .clock = vclock ? &*vclock : nullptr});
  constexpr int kSpawns = 5000;
  p.spawn_us = ns_per_op(kSpawns, [&](int) {
    rt.spawn_isolated(Isolation::basic({&mp}), [&](Context& ctx) { ctx.trigger(ev, Message{}); }).wait();
  }) / 1e3;
}

}  // namespace

ProbeResults run_probes(const WorkloadConfig& cfg, std::size_t batch, SpanRecorder& spans) {
  ProbeResults p;
  spans.span("probe.codec", 0, 0, [&] { probe_codec(batch, p); });
  spans.span("probe.sim_network", 0, 0, [&] { probe_network(cfg, p); });
  spans.span("probe.timer_service", 0, 0, [&] { probe_timers(p); });
  spans.span("probe.runtime", 0, 0, [&] { probe_runtime(cfg, p); });
  return p;
}

}  // namespace gcbench
