// Timer service — timeouts as external events.
//
// In the SAMOA model a timeout is one of the two canonical external events
// (Section 2). The TimerService keeps a deadline-ordered queue; its clock
// fires each expired callback, which typically spawns an isolated
// computation on the owning site's runtime. Supports one-shot and periodic
// timers with cancellation.
//
// All deadlines flow through an injected time::ClockSource, which drives
// the queue as a time::EventSource. Under the default WallClock the
// callbacks run on a real-time thread the clock starts for this service;
// under a time::VirtualClock they fire on the clock's driver thread in
// virtual time with zero real sleeps, serialized against every other
// clock-driven event.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "time/clock.hpp"
#include "util/stats.hpp"

namespace samoa::net {

using TimerId = std::uint64_t;

class TimerService : private time::EventSource {
 public:
  explicit TimerService(time::ClockSource* clock = nullptr);
  ~TimerService();

  TimerService(const TimerService&) = delete;
  TimerService& operator=(const TimerService&) = delete;

  /// Fire `fn` once after `delay`.
  TimerId schedule(std::chrono::microseconds delay, std::function<void()> fn);

  /// Fire `fn` every `interval` until cancelled.
  TimerId schedule_periodic(std::chrono::microseconds interval, std::function<void()> fn);

  /// Cancel a timer; returns false if it already fired (one-shot) or was
  /// unknown. A periodic timer stops firing after cancel — including when
  /// the cancel lands while its callback is executing.
  bool cancel(TimerId id);

  /// Cancel everything (used at site shutdown / crash). A periodic timer
  /// mid-callback does not re-arm.
  void cancel_all();

  std::uint64_t fired_count() const { return fired_.value(); }

  time::ClockSource& clock() { return clock_; }

 private:
  struct Entry {
    TimerId id;
    std::chrono::microseconds interval{0};  // zero: one-shot
    std::function<void()> fn;
  };

  /// Queue `fn` at now + `delay`; a non-zero `interval` re-arms it.
  TimerId arm(std::chrono::microseconds delay, std::chrono::microseconds interval,
              std::function<void()> fn);

  Clock::time_point next_deadline() override;
  std::optional<Clock::time_point> commit(Clock::time_point now) override;
  void fire() override;

  time::ClockSource& clock_;
  std::mutex mu_;
  std::multimap<Clock::time_point, Entry> queue_;
  TimerId next_id_ = 1;
  // The committed entry: out of queue_ from commit() until fire() returns,
  // so cancel() consults these to stop a periodic timer from re-arming.
  Entry running_;
  TimerId running_id_ = 0;
  std::chrono::microseconds running_interval_{0};
  bool running_cancelled_ = false;
  Counter fired_;
  std::unique_ptr<time::Attachment> attachment_;  // attached last, detached first
};

}  // namespace samoa::net
