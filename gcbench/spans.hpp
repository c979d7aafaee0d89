// In-memory span recorder for the traced run.
//
// Spans are recorded only by the benchmark's own code, around each call it
// makes into the program (abcast, crash, request_leave, delivery
// observations, layer probes). They stay in memory until the run ends and
// are then written as Chrome trace-event JSON (load it in chrome://tracing
// or Perfetto). A disabled recorder costs one branch per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace gcbench {

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Run `fn` inside a span named `name`. `id` ties spans of one request
  /// together (the message number for abcast and its deliveries);
  /// `clock_us` is the workload clock's reading (virtual time under the
  /// VirtualClock), kept so spans can be lined up with simulated events.
  template <class F>
  decltype(auto) span(const char* name, std::uint64_t id, double clock_us, F&& fn) {
    if (!enabled_) return fn();
    const auto start = std::chrono::steady_clock::now();
    struct Close {
      SpanRecorder* self;
      const char* name;
      std::uint64_t id;
      double clock_us;
      std::chrono::steady_clock::time_point start;
      ~Close() { self->record(name, id, clock_us, start, std::chrono::steady_clock::now()); }
    } close{this, name, id, clock_us, start};
    return fn();
  }

  std::size_t size() const {
    std::lock_guard lock(mu_);
    return spans_.size();
  }

  /// Write every recorded span as Chrome trace-event JSON. Returns false
  /// if the file could not be written.
  bool write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard lock(mu_);
    out << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
          << ",\"dur\":" << s.dur_us << ",\"args\":{\"id\":" << s.id << ",\"clock_us\":" << s.clock_us
          << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    double clock_us;
    double start_us;
    double dur_us;
  };

  void record(const char* name, std::uint64_t id, double clock_us,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end) {
    using us = std::chrono::duration<double, std::micro>;
    std::lock_guard lock(mu_);
    spans_.push_back(Span{name, id, clock_us, us(start - origin_).count(), us(end - start).count()});
  }

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace gcbench
