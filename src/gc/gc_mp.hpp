// Base class for group-communication microprotocols.
//
// Provides the optional Cactus-style manual lock: when GcOptions::
// manual_locks is set, every handler body runs under the microprotocol's
// own mutex (call guard() first thing). Under the VCA policies the guard
// is a no-op — the runtime's concurrency control already guarantees
// exclusive access per computation, which is the paper's whole point.
//
// Each handler is registered together with the event types its body may
// trigger. Those declared triggers are the input of core/infer, from
// which GroupNode derives every isolation declaration (paper Section 4:
// M "could be inferred statically").
#pragma once

#include <initializer_list>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "core/infer.hpp"
#include "core/microprotocol.hpp"
#include "gc/gc_options.hpp"

namespace samoa::gc {

/// Deferred event emission (C++ Core Guidelines CP.22: never call unknown
/// code while holding a lock). Handlers queue their outgoing events while
/// the microprotocol guard is held and flush them after releasing it, so
/// the manual-lock baseline can never deadlock on nested microprotocol
/// locks — the realistic discipline a careful Cactus programmer follows.
/// Under the VCA policies the guard is a no-op and the outbox merely
/// defers triggers to the end of the handler body, which is equivalent.
///
/// Entries point at the caller's event types, which must outlive flush();
/// the microprotocols pass members of the node's GcEvents.
class Outbox {
 public:
  void trigger(const EventType& ev, Message msg) {
    entries_.push_back({&ev, std::move(msg), Mode::kOne});
  }
  void trigger_all(const EventType& ev, Message msg) {
    entries_.push_back({&ev, std::move(msg), Mode::kAll});
  }
  void async_trigger_all(const EventType& ev, Message msg) {
    entries_.push_back({&ev, std::move(msg), Mode::kAsyncAll});
  }

  /// Emit everything in queueing order. Call WITHOUT holding the guard.
  void flush(Context& ctx) {
    for (auto& e : entries_) {
      switch (e.mode) {
        case Mode::kOne:
          ctx.trigger(*e.ev, std::move(e.msg));
          break;
        case Mode::kAll:
          ctx.trigger_all(*e.ev, std::move(e.msg));
          break;
        case Mode::kAsyncAll:
          ctx.async_trigger_all(*e.ev, std::move(e.msg));
          break;
      }
    }
    entries_.clear();
  }

 private:
  enum class Mode { kOne, kAll, kAsyncAll };
  struct Entry {
    const EventType* ev;
    Message msg;
    Mode mode;
  };
  std::vector<Entry> entries_;
};

class GcMicroprotocol : public Microprotocol {
 public:
  /// Add every declared handler -> event trigger of this microprotocol.
  void declare_triggers(TriggerDeclarations& decls) const {
    for (const auto& [handler, event] : triggers_) decls.declare(*handler, *event);
  }

 protected:
  GcMicroprotocol(std::string name, const GcOptions& opts)
      : Microprotocol(std::move(name)), opts_(opts) {}

  /// Register a handler whose body may trigger each of `triggers` (and
  /// nothing else: an undeclared trigger throws IsolationError under the
  /// declarations derived from these). A handler that triggers nothing
  /// uses the plain overload.
  Handler& register_handler(std::string name, std::initializer_list<const EventType*> triggers,
                            HandlerFn fn) {
    Handler& h = Microprotocol::register_handler(std::move(name), std::move(fn));
    // One allocation per microprotocol: none declares more than 8 edges.
    if (triggers_.empty()) triggers_.reserve(8);
    for (const EventType* event : triggers) triggers_.emplace_back(&h, event);
    return h;
  }
  using Microprotocol::register_handler;

  /// Lock for this microprotocol's state iff manual synchronisation is on.
  std::unique_lock<std::mutex> guard() {
    if (opts_.manual_locks) return std::unique_lock(mu_);
    return std::unique_lock<std::mutex>();
  }

  const GcOptions& options() const { return opts_; }

 private:
  const GcOptions& opts_;
  std::mutex mu_;
  std::vector<std::pair<const Handler*, const EventType*>> triggers_;
};

}  // namespace samoa::gc
