#include "net/timer_service.hpp"

namespace samoa::net {

TimerService::TimerService(time::ClockSource* clock)
    : clock_(clock != nullptr ? *clock : time::wall_clock()), attachment_(clock_.attach(*this)) {}

TimerService::~TimerService() { attachment_.reset(); }

TimerId TimerService::schedule(std::chrono::microseconds delay, std::function<void()> fn) {
  return arm(delay, std::chrono::microseconds{0}, std::move(fn));
}

TimerId TimerService::schedule_periodic(std::chrono::microseconds interval,
                                        std::function<void()> fn) {
  return arm(interval, interval, std::move(fn));
}

TimerId TimerService::arm(std::chrono::microseconds delay, std::chrono::microseconds interval,
                          std::function<void()> fn) {
  std::unique_lock lock(mu_);
  const TimerId id = next_id_++;
  const auto at = clock_.now() + delay;
  queue_.emplace(at, Entry{id, interval, std::move(fn)});
  lock.unlock();
  attachment_->notify(at);
  return id;
}

bool TimerService::cancel(TimerId id) {
  std::unique_lock lock(mu_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->second.id == id) {
      queue_.erase(it);
      return true;
    }
  }
  // Not queued — it may be committed or mid-callback. A periodic timer
  // would otherwise re-arm after the callback returns, losing the
  // cancellation; flag it so fire() suppresses the re-arm. A committed
  // one-shot keeps the "already fired" contract and reports false.
  if (id != 0 && id == running_id_ && running_interval_.count() > 0) {
    running_cancelled_ = true;
    return true;
  }
  return false;
}

void TimerService::cancel_all() {
  std::unique_lock lock(mu_);
  queue_.clear();
  // Also stop any periodic timer currently mid-callback from re-arming.
  running_cancelled_ = true;
}

Clock::time_point TimerService::next_deadline() {
  std::unique_lock lock(mu_);
  return queue_.empty() ? Clock::time_point::max() : queue_.begin()->first;
}

std::optional<Clock::time_point> TimerService::commit(Clock::time_point now) {
  std::unique_lock lock(mu_);
  if (queue_.empty() || queue_.begin()->first > now) return std::nullopt;
  const auto due = queue_.begin()->first;
  running_ = std::move(queue_.begin()->second);
  queue_.erase(queue_.begin());
  running_id_ = running_.id;
  running_interval_ = running_.interval;
  running_cancelled_ = false;
  return due;
}

void TimerService::fire() {
  // commit() and fire() run on the same clock thread, so running_ is ours.
  Entry entry = std::move(running_);
  // Count before invoking: a callback that signals completion must not
  // be observable before the fire it belongs to.
  fired_.add();
  entry.fn();
  std::unique_lock lock(mu_);
  if (entry.interval.count() > 0 && !running_cancelled_) {
    queue_.emplace(clock_.now() + entry.interval, std::move(entry));
  }
  running_id_ = 0;
}

}  // namespace samoa::net
