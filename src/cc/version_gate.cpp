#include "cc/version_gate.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace samoa {

VersionGate::VersionGate() {
  // Self-tracking subject: blocked-state dumps pull holders from the ring
  // via the HolderSource interface instead of the registry's own maps, so
  // admissions never take the registry's global mutex.
  diag::WaitRegistry::instance().attach_source(this, this);
}

VersionGate::~VersionGate() { diag::WaitRegistry::instance().forget_subject(this); }

std::uint64_t VersionGate::admit(std::uint64_t delta, std::uint64_t comp) {
  const std::uint64_t pv = cell_.gv.fetch_add(delta, std::memory_order_acq_rel) + delta;
  if (comp != 0) note_holder(pv, comp);
  return pv;
}

std::uint64_t VersionGate::claim_range(std::uint64_t total) {
  return cell_.gv.fetch_add(total, std::memory_order_acq_rel) + total;
}

void VersionGate::note_holder(std::uint64_t pv, std::uint64_t comp) {
  // Best-effort diagnostic record: a backlog deeper than the ring reuses
  // slots, and a dump racing the pair of stores may see a torn entry. Both
  // only blur a thread dump; the version counters themselves are exact.
  HolderSlot& slot = holders_[pv % kHolderRing];
  slot.comp.store(comp, std::memory_order_relaxed);
  slot.version.store(pv, std::memory_order_release);
}

void VersionGate::wait_exact(std::uint64_t pv_minus_1, CCStats& stats, const char* who) {
  const std::uint64_t target = pv_minus_1;
  if (cell_.lv.load(std::memory_order_acquire) == target) return;  // lock-free fast path
  std::unique_lock lock(mu_);
  // Dekker handshake with lock-free publishers: advertise the sleeper
  // first (seq_cst), then re-check lv (seq_cst). A publisher stores lv
  // before loading sleepers, so one of us is guaranteed to see the other.
  cell_.sleepers.fetch_add(1, std::memory_order_seq_cst);
  if (cell_.lv.load(std::memory_order_seq_cst) == target) {
    cell_.sleepers.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  stats.gate_waits.add();
  const auto start = Clock::now();
  Waiter self;
  self.lo = target;
  self.hi = target + 1;
  self.comp = diag::current_computation();
  exact_waiters_.emplace(target, &self);
  {
    // Registering the wait also releases this worker's runnable slot in
    // its pool (see ElasticThreadPool::note_worker_parked) — the task
    // that publishes pv_minus_1 may still be queued.
    diag::ScopedWait wait(diag::WaitKind::kGateExact, this, who, target, target + 1,
                          cell_.lv.load(std::memory_order_relaxed));
    // Acquire, not relaxed: a waiter whose re-check above missed the
    // publish can see the new lv here before the publisher takes mu_, and
    // then mu_ gives it no happens-before edge to the previous holder's
    // handler writes.
    self.cv.wait(lock, [&] {
      return self.cancelled || cell_.lv.load(std::memory_order_acquire) == target;
    });
  }
  if (!self.cancelled) {
    // Re-find rather than cache the emplace iterator: concurrent inserts
    // may have rehashed the table while this thread was parked. A
    // cancelled waiter was already unhooked by cancel_waiters().
    const auto [begin, end] = exact_waiters_.equal_range(target);
    for (auto it = begin; it != end; ++it) {
      if (it->second == &self) {
        exact_waiters_.erase(it);
        break;
      }
    }
  }
  cell_.sleepers.fetch_sub(1, std::memory_order_relaxed);
  stats.gate_wait_time.record(std::chrono::duration_cast<Nanos>(Clock::now() - start));
  if (self.cancelled) {
    throw WaitCancelled("VersionGate: wait_exact cancelled (computation aborted while parked)");
  }
}

void VersionGate::wait_window(std::uint64_t lo, std::uint64_t hi, CCStats& stats, const char* who) {
  auto in_window = [&](std::uint64_t v) { return lo <= v && v < hi; };
  if (in_window(cell_.lv.load(std::memory_order_acquire))) return;  // lock-free fast path
  std::unique_lock lock(mu_);
  cell_.sleepers.fetch_add(1, std::memory_order_seq_cst);
  if (in_window(cell_.lv.load(std::memory_order_seq_cst))) {
    cell_.sleepers.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  stats.gate_waits.add();
  const auto start = Clock::now();
  Waiter self;
  self.lo = lo;
  self.hi = hi;
  self.comp = diag::current_computation();
  window_waiters_.push_back(&self);
  {
    diag::ScopedWait wait(diag::WaitKind::kGateWindow, this, who, lo, hi,
                          cell_.lv.load(std::memory_order_relaxed));
    // Acquire for the same reason as in wait_exact.
    self.cv.wait(lock, [&] {
      return self.cancelled || in_window(cell_.lv.load(std::memory_order_acquire));
    });
  }
  if (!self.cancelled) std::erase(window_waiters_, &self);
  cell_.sleepers.fetch_sub(1, std::memory_order_relaxed);
  stats.gate_wait_time.record(std::chrono::duration_cast<Nanos>(Clock::now() - start));
  if (self.cancelled) {
    throw WaitCancelled("VersionGate: wait_window cancelled (computation aborted while parked)");
  }
}

void VersionGate::set_lv(std::uint64_t v) {
  std::uint64_t cur = cell_.lv.load(std::memory_order_seq_cst);
  for (;;) {
    if (v < cur) throw std::logic_error("VersionGate: local version downgrade");
    if (v == cur) break;  // already published (e.g. by a deferred chain)
    // CAS-max rather than a plain store: concurrent increment_lv (VCAbound
    // Rule 4 on a different computation's window) must never be lost.
    if (cell_.lv.compare_exchange_weak(cur, v, std::memory_order_seq_cst)) break;
  }
  after_publish();
}

void VersionGate::increment_lv() {
  cell_.lv.fetch_add(1, std::memory_order_seq_cst);
  after_publish();
}

void VersionGate::schedule_set(std::uint64_t trigger, std::uint64_t to) {
  std::unique_lock lock(mu_);
  const std::uint64_t cur = cell_.lv.load(std::memory_order_seq_cst);
  if (cur > trigger) {
    // The turn already passed (possible only if the caller raced a direct
    // upgrade); the scheduled value must then be stale or equal.
    return;
  }
  if (cur == trigger) {
    raise_lv_locked(to);
    apply_deferred_locked();
    diag::WaitRegistry::instance().note_progress();
    return;
  }
  const auto [it, inserted] = deferred_.emplace(trigger, to);
  if (!inserted) {
    it->second = std::max(it->second, to);
  } else {
    cell_.deferred_n.fetch_add(1, std::memory_order_seq_cst);
  }
  // Dekker re-check: a lock-free publisher may have stepped lv to (or
  // across) the trigger after our load above but before it could see
  // deferred_n — it then skipped the slow path, so firing is on us.
  if (cell_.lv.load(std::memory_order_seq_cst) >= trigger) {
    apply_deferred_locked();
    diag::WaitRegistry::instance().note_progress();
  }
}

void VersionGate::after_publish() {
  // The lv update above and these loads are all seq_cst: in the single
  // total order either we see the registering waiter / scheduled deferred
  // upgrade here, or its own re-check sees our lv — never neither.
  if (cell_.sleepers.load(std::memory_order_seq_cst) == 0 &&
      cell_.deferred_n.load(std::memory_order_seq_cst) == 0) {
    fast_publishes_.fetch_add(1, std::memory_order_relaxed);
    diag::WaitRegistry::instance().note_progress();
    return;
  }
  slow_publishes_.fetch_add(1, std::memory_order_relaxed);
  {
    std::unique_lock lock(mu_);
    wake_matching_locked();
    apply_deferred_locked();
  }
  diag::WaitRegistry::instance().note_progress();
}

void VersionGate::raise_lv_locked(std::uint64_t to) {
  std::uint64_t cur = cell_.lv.load(std::memory_order_seq_cst);
  while (cur < to) {
    if (cell_.lv.compare_exchange_weak(cur, to, std::memory_order_seq_cst)) break;
  }
  wake_matching_locked();
}

void VersionGate::apply_deferred_locked() {
  // Fire every trigger at or below lv, in ascending order: lock-free
  // publishers may have stepped lv across several trigger values since the
  // last slow-path entry, and each fired upgrade can land on (or beyond)
  // the next trigger.
  for (;;) {
    const std::uint64_t cur = cell_.lv.load(std::memory_order_seq_cst);
    const auto it = deferred_.begin();
    if (it == deferred_.end() || it->first > cur) break;
    const std::uint64_t to = it->second;
    deferred_.erase(it);
    cell_.deferred_n.fetch_sub(1, std::memory_order_seq_cst);
    // Each value a deferred chain lands on is a published version in its
    // own right: waiters keyed on it must see it (raise_lv_locked wakes).
    if (to > cur) raise_lv_locked(to);
  }
}

void VersionGate::wake_matching_locked() {
  const std::uint64_t cur = cell_.lv.load(std::memory_order_relaxed);
  auto deliver = [&](Waiter* w) {
    w->cv.notify_one();
    // One delivery per park, no matter how many intermediate lv values of
    // a deferred chain also matched: wakeups_delivered() bounds the cost
    // of the publish path by the number of parks, and the explorer's
    // accounting requires at most one report per parked computation.
    if (!w->counted) {
      w->counted = true;
      ++wakeups_delivered_;
      diag::WaitRegistry::instance().note_wakeup_delivered(w->comp);
    }
  };
  const auto [begin, end] = exact_waiters_.equal_range(cur);
  for (auto it = begin; it != end; ++it) deliver(it->second);
  for (Waiter* w : window_waiters_) {
    if (w->lo <= cur && cur < w->hi) deliver(w);
  }
}

std::size_t VersionGate::cancel_waiters(std::uint64_t comp) {
  std::unique_lock lock(mu_);
  std::size_t n = 0;
  for (auto it = exact_waiters_.begin(); it != exact_waiters_.end();) {
    Waiter* w = it->second;
    if (w->comp == comp) {
      w->cancelled = true;
      w->cv.notify_one();
      it = exact_waiters_.erase(it);
      ++n;
    } else {
      ++it;
    }
  }
  for (auto it = window_waiters_.begin(); it != window_waiters_.end();) {
    Waiter* w = *it;
    if (w->comp == comp) {
      w->cancelled = true;
      w->cv.notify_one();
      it = window_waiters_.erase(it);
      ++n;
    } else {
      ++it;
    }
  }
  return n;
}

std::uint64_t VersionGate::wakeups_delivered() const {
  std::unique_lock lock(mu_);
  return wakeups_delivered_;
}

std::vector<diag::HolderEntry> VersionGate::outstanding_holders() const {
  std::vector<diag::HolderEntry> out;
  const std::uint64_t published = lv();
  for (std::size_t i = 0; i < kHolderRing; ++i) {
    const std::uint64_t v = holders_[i].version.load(std::memory_order_acquire);
    if (v == 0 || v <= published) continue;
    out.push_back({v, holders_[i].comp.load(std::memory_order_relaxed)});
  }
  // snapshot() binary-searches holders by version; keep them sorted.
  std::sort(out.begin(), out.end(),
            [](const diag::HolderEntry& a, const diag::HolderEntry& b) {
              return a.version < b.version;
            });
  return out;
}

GateTable::GateTable() = default;
GateTable::~GateTable() = default;

VersionGate& GateTable::gate_slow(MicroprotocolId mp) {
  const std::uint32_t key = mp.value();
  std::unique_lock lock(mu_);
  if (key != kEmptyKey) {
    // Re-probe under the lock: another thread may have inserted while we
    // raced here.
    std::size_t i = probe_start(key);
    for (std::size_t n = 0; n < kSlots; ++n, i = (i + 1) & (kSlots - 1)) {
      const std::uint32_t k = slots_[i].key.load(std::memory_order_relaxed);
      if (k == key) return *slots_[i].gate.load(std::memory_order_relaxed);
      if (k == kEmptyKey) {
        // Cap the load factor so lock-free probe chains stay short; the
        // overflow map keeps correctness beyond it.
        if (used_ >= kSlots / 2) break;
        auto gate = std::make_unique<VersionGate>();
        VersionGate* ptr = gate.get();
        owned_.push_back(std::move(gate));
        ++used_;
        // Publish the gate pointer before the key: a lock-free reader that
        // acquires the key is guaranteed to see the pointer (and the fully
        // constructed gate behind it).
        slots_[i].gate.store(ptr, std::memory_order_relaxed);
        slots_[i].key.store(key, std::memory_order_release);
        return *ptr;
      }
    }
  }
  auto& slot = overflow_[mp];
  if (!slot) slot = std::make_unique<VersionGate>();
  return *slot;
}

OrderedAdmission::OrderedAdmission(GateTable& gates, const std::vector<MicroprotocolId>& mps) {
  std::vector<std::pair<std::uint32_t, VersionGate*>> members;
  members.reserve(mps.size());
  for (MicroprotocolId mp : mps) members.emplace_back(mp.value(), &gates.gate(mp));
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  locked_.reserve(members.size());
  for (auto& [id, g] : members) {
    g->admission_mutex().lock();
    locked_.push_back(g);
  }
}

OrderedAdmission::~OrderedAdmission() {
  for (auto it = locked_.rbegin(); it != locked_.rend(); ++it) (*it)->admission_mutex().unlock();
}

}  // namespace samoa
