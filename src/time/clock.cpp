#include "time/clock.hpp"

#include <algorithm>
#include <tuple>

namespace samoa::time {

namespace {

/// WallClock's driver for one source: a real-time thread that commits and
/// fires whatever is due, then sleeps until the next deadline or until an
/// insert lands before it.
class WallRunner final : public Attachment {
 public:
  explicit WallRunner(EventSource& events) : events_(events), thread_([this] { run(); }) {}

  ~WallRunner() override {
    {
      std::lock_guard g(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void notify(Clock::time_point at) override {
    {
      std::lock_guard g(mu_);
      if (at >= sleep_until_) return;  // the runner wakes by then anyway
      dirty_ = true;
    }
    cv_.notify_one();
  }

 private:
  void run() {
    std::unique_lock lock(mu_);
    while (!stop_) {
      dirty_ = false;
      lock.unlock();
      if (events_.commit(Clock::now())) {
        events_.fire();
        lock.lock();
        continue;
      }
      const auto next = events_.next_deadline();
      lock.lock();
      if (dirty_) continue;
      sleep_until_ = next;
      const auto woken = [this] { return stop_ || dirty_; };
      if (next == Clock::time_point::max()) {
        cv_.wait(lock, woken);
      } else {
        cv_.wait_until(lock, next, woken);
      }
      sleep_until_ = Clock::time_point::max();  // awake: every insert counts
    }
  }

  EventSource& events_;
  std::mutex mu_;
  std::condition_variable cv_;
  Clock::time_point sleep_until_ = Clock::time_point::max();
  bool dirty_ = false;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

ClockSource& wall_clock() {
  static WallClock instance;
  return instance;
}

std::unique_ptr<Attachment> WallClock::attach(EventSource& source) {
  return std::make_unique<WallRunner>(source);
}

class VirtualClock::Slot final : public Attachment {
 public:
  Slot(VirtualClock& clock, int id) : clock_(clock), id_(id) {}
  ~Slot() override { clock_.detach(id_); }

  void notify(Clock::time_point) override {
    std::lock_guard g(clock_.mu_);
    clock_.mark_dirty(id_);
  }

 private:
  VirtualClock& clock_;
  int id_;
};

VirtualClock::VirtualClock() : driver_([this] { run(); }) {}

VirtualClock::~VirtualClock() {
  {
    std::lock_guard g(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  driver_.join();
}

Clock::time_point VirtualClock::now() const {
  std::lock_guard g(mu_);
  return now_;
}

std::unique_ptr<Attachment> VirtualClock::attach(EventSource& source) {
  std::lock_guard g(mu_);
  sources_.push_back(Source{.events = &source});
  return std::make_unique<Slot>(*this, static_cast<int>(sources_.size() - 1));
}

void VirtualClock::pin() {
  std::lock_guard g(mu_);
  ++pins_;
}

void VirtualClock::unpin() {
  std::lock_guard g(mu_);
  if (--pins_ == 0) cv_.notify_one();
}

void VirtualClock::mark_dirty(int id) {
  Source& s = sources_[static_cast<std::size_t>(id)];
  if (s.dirty || s.events == nullptr) return;
  s.dirty = true;
  dirty_.push_back(id);
  cv_.notify_one();
}

void VirtualClock::detach(int id) {
  std::unique_lock lock(mu_);
  // Forget the source first, so the driver starts no new call into it,
  // then wait out the call that may be running.
  Source& s = sources_[static_cast<std::size_t>(id)];
  s.events = nullptr;
  if (s.committed) std::erase_if(ready_, [id](const Ready& r) { return r.id == id; });
  detach_cv_.wait(lock, [&] { return busy_ != id; });
}

template <typename F>
void VirtualClock::call(std::unique_lock<std::mutex>& lock, int id, F&& f) {
  EventSource& events = *sources_[static_cast<std::size_t>(id)].events;
  busy_ = id;
  lock.unlock();
  f(events);
  lock.lock();
  busy_ = -1;
  detach_cv_.notify_all();
}

void VirtualClock::run() {
  std::unique_lock lock(mu_);
  while (!stop_) {
    if (pins_ > 0) {
      cv_.wait(lock, [this] { return stop_ || pins_ == 0; });
      continue;
    }
    if (!dirty_.empty()) {
      // Re-check: a source whose head is due commits it and becomes ready;
      // any other refreshes its cached deadline. A committed source is
      // re-checked only after it fired.
      const int id = dirty_.back();
      dirty_.pop_back();
      Source& s = sources_[static_cast<std::size_t>(id)];
      s.dirty = false;
      if (s.events == nullptr || s.committed) continue;
      const Clock::time_point now = now_;
      std::optional<Clock::time_point> due;
      Clock::time_point next = Clock::time_point::max();
      call(lock, id, [&](EventSource& events) {
        due = events.commit(now);
        if (!due) next = events.next_deadline();
      });
      Source& t = sources_[static_cast<std::size_t>(id)];  // sources_ may have grown
      if (t.events == nullptr) continue;                    // detached meanwhile
      if (due) {
        t.committed = true;
        ready_.push_back(Ready{*due, id});
      } else {
        t.deadline = next;
      }
      continue;
    }
    if (!ready_.empty()) {
      const auto it =
          std::min_element(ready_.begin(), ready_.end(), [](const Ready& a, const Ready& b) {
            return std::tie(a.due, a.id) < std::tie(b.due, b.id);
          });
      const int id = it->id;
      ready_.erase(it);
      sources_[static_cast<std::size_t>(id)].committed = false;
      call(lock, id, [](EventSource& events) { events.fire(); });
      mark_dirty(id);
      continue;
    }
    // Nothing ready: advance to the earliest cached head, lowest id first.
    const Source* next = nullptr;
    int next_id = -1;
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      const Source& s = sources_[i];
      if (s.events == nullptr || s.deadline == Clock::time_point::max()) continue;
      if (next == nullptr || s.deadline < next->deadline) {
        next = &s;
        next_id = static_cast<int>(i);
      }
    }
    if (next == nullptr) {
      // Idle: time stands still until an insert.
      cv_.wait(lock, [this] { return stop_ || !dirty_.empty(); });
      continue;
    }
    now_ = std::max(now_, next->deadline);
    mark_dirty(next_id);
  }
}

}  // namespace samoa::time
