// Layer probes: each times one layer's public function in isolation, with
// inputs shaped like the workload's. Multiplied by the episode's count of
// the same operation, a probe estimates that layer's share of the run.
#pragma once

#include <cstdint>

#include "spans.hpp"
#include "workload.hpp"

namespace gcbench {

struct ProbeResults {
  double encode_ns = 0;  // net::encode_wire, mean over RcData/RcAck/CsAccept/CsDecide
  double decode_ns = 0;  // net::decode_wire, same mix
  std::uint64_t bytes_rcdata = 0;  // encoded size of one RcData carrying a workload payload
  double net_us_per_packet = 0;    // SimNetwork::send + delivery to a no-op site
  double timer_us_per_fire = 0;    // TimerService one-shot on a VirtualClock
  double spawn_us = 0;             // Runtime::spawn_isolated + wait, one-microprotocol stack
};

/// `batch` is the number of messages per consensus value in the probe's
/// consensus messages (the episode's messages per instance).
ProbeResults run_probes(const WorkloadConfig& cfg, std::size_t batch, SpanRecorder& spans);

}  // namespace gcbench
