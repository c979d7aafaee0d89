// Virtual-time layer — deterministic simulation substrate.
//
// Every component that sleeps, arms a timeout, or stamps a deadline does so
// through a ClockSource. Two implementations exist:
//
//   * WallClock — the process-global steady clock. Each attached event
//     source gets one real-time thread that sleeps until the source's next
//     deadline and fires it. This is what the latency/overhead experiments
//     need (they measure real time).
//
//   * VirtualClock — FoundationDB/TigerBeetle-style deterministic
//     simulation, run as a discrete-event loop. One driver thread per clock
//     fires the events of every attached source one at a time; `now()` is a
//     number that jumps straight to the next deadline. Between events the
//     driver waits only for the activity pins to reach zero (the runtime
//     holds one per in-flight computation), so each event runs to
//     completion, including any computation it spawned, before the next
//     starts. A test run under VirtualClock burns zero wall-clock time in
//     timers and is bit-for-bit reproducible from its seed.
//
// Event sources (SimNetwork, TimerService) implement EventSource: a next
// deadline, a commit step that takes the due head out of the queue, and a
// fire step that runs it. Both clocks drive a source through the same three
// calls, so each service has one code path. A source attaches once it is
// fully constructed and its queue is still empty, calls Attachment::notify
// after queueing an event, and destroys its Attachment first thing in its
// destructor.
//
// Same-instant order under VirtualClock. After each event the loop
// re-checks the source that just ran and every source that notified during
// the event (or while pins were held after it). A re-checked source whose
// head is due at `now` commits it and joins the ready set; ready sources
// fire in (due, source id) order, before any untouched source due at the
// same instant. Only when the ready set is empty does the loop move `now`
// to the earliest head by (deadline, source id). Source ids follow attach
// order.
//
// The clock must outlive every source attached to it.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "util/stats.hpp"

namespace samoa::time {

/// Something that owns timed events and lets a clock decide when each one
/// runs. The clock calls these from its own thread, one at a time per
/// source, with no clock lock held.
class EventSource {
 public:
  /// Deadline of the earliest queued event; time_point::max() when idle.
  virtual Clock::time_point next_deadline() = 0;
  /// If the earliest event is due at `now`, take it out of the queue and
  /// return its deadline; nullopt when nothing is due. A committed event
  /// can no longer be cancelled; the next fire() runs it.
  virtual std::optional<Clock::time_point> commit(Clock::time_point now) = 0;
  /// Run the event the last successful commit() took.
  virtual void fire() = 0;

 protected:
  ~EventSource() = default;
};

/// A source's registration with its clock. Destroying it detaches the
/// source: it blocks until no step of the source is running, and none
/// starts afterwards.
class Attachment {
 public:
  Attachment() = default;
  virtual ~Attachment() = default;
  Attachment(const Attachment&) = delete;
  Attachment& operator=(const Attachment&) = delete;

  /// The source queued an event due at `at`; its next deadline may now be
  /// earlier. Call without holding any lock the EventSource calls take.
  virtual void notify(Clock::time_point at) = 0;
};

class ClockSource {
 public:
  virtual ~ClockSource() = default;

  virtual Clock::time_point now() const = 0;
  virtual bool is_virtual() const = 0;

  /// Start driving `source`'s events. The source must stay alive until the
  /// returned attachment is destroyed.
  virtual std::unique_ptr<Attachment> attach(EventSource& source) = 0;

  /// Activity pin: virtual time cannot advance and no event can fire while
  /// at least one pin is held. The runtime holds one per in-flight
  /// computation; test harnesses hold one while injecting a workload.
  /// Never wait for simulated progress while holding a pin.
  virtual void pin() {}
  virtual void unpin() {}
};

/// Process-global wall clock (the default everywhere).
ClockSource& wall_clock();

class WallClock final : public ClockSource {
 public:
  Clock::time_point now() const override { return Clock::now(); }
  bool is_virtual() const override { return false; }
  std::unique_ptr<Attachment> attach(EventSource& source) override;
};

class VirtualClock final : public ClockSource {
 public:
  VirtualClock();
  ~VirtualClock() override;

  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  Clock::time_point now() const override;
  bool is_virtual() const override { return true; }
  std::unique_ptr<Attachment> attach(EventSource& source) override;

  void pin() override;
  void unpin() override;

 private:
  class Slot;
  struct Source {
    EventSource* events = nullptr;                          // null once detached
    Clock::time_point deadline = Clock::time_point::max();  // cached next_deadline()
    bool dirty = false;      // queued for re-check
    bool committed = false;  // in ready_, waiting to fire
  };
  struct Ready {
    Clock::time_point due;
    int id;
  };

  void run();
  void mark_dirty(int id);
  void detach(int id);
  /// Run `f` on source `id`'s events with mu_ released; detach() waits
  /// until it returned.
  template <typename F>
  void call(std::unique_lock<std::mutex>& lock, int id, F&& f);

  mutable std::mutex mu_;
  std::condition_variable cv_;         // driver: insert, last unpin, stop
  std::condition_variable detach_cv_;  // detachers: busy_ changed
  Clock::time_point now_{};            // virtual epoch: time_point zero
  long pins_ = 0;
  std::vector<Source> sources_;  // indexed by source id
  std::vector<int> dirty_;
  std::vector<Ready> ready_;
  int busy_ = -1;  // source whose EventSource call is running
  bool stop_ = false;
  std::thread driver_;
};

/// RAII activity pin; hold while injecting a workload so virtual time
/// stands still until the setup is complete.
class Pin {
 public:
  explicit Pin(ClockSource& clock) : clock_(&clock) { clock_->pin(); }
  ~Pin() { clock_->unpin(); }

  Pin(const Pin&) = delete;
  Pin& operator=(const Pin&) = delete;

 private:
  ClockSource* clock_;
};

}  // namespace samoa::time
