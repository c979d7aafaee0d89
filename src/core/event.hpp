// Event types and messages.
//
// In the SAMOA model (paper Section 2), executions of handlers are
// triggered by *events*; each event carries an event type, and only
// handlers bound to that type run in response. Event types are first-class
// values: they can be stored, passed to handlers, and used as keys.
#pragma once

#include <memory>
#include <string>
#include <typeinfo>
#include <utility>

#include "core/errors.hpp"
#include "util/ids.hpp"

namespace samoa {

/// A named, process-unique event type. Copies are cheap and share identity
/// (two copies of the same EventType compare equal; two EventTypes created
/// with the same name are distinct, as in J-SAMOA where types are object
/// instantiations of class Event).
class EventType {
 public:
  explicit EventType(std::string name);

  EventTypeId id() const { return id_; }
  const std::string& name() const { return *name_; }

  friend bool operator==(const EventType& a, const EventType& b) { return a.id_ == b.id_; }

 private:
  EventTypeId id_;
  std::shared_ptr<const std::string> name_;
};

/// Type-erased event payload. Handlers receive a `const Message&` and read
/// it with `as<T>()`; a mismatched type raises MessageTypeError rather
/// than UB.
///
/// The payload is immutable and shared: `of` builds it once, and a copy of
/// the Message only bumps a reference count, so a `Wire` handed through
/// spawn, trigger and the async queues is never duplicated. Every copy
/// aliases the same object (`&a.as<T>() == &b.as<T>()`).
class Message {
 public:
  Message() = default;

  template <typename T>
  static Message of(T value) {
    Message m;
    m.payload_ = std::make_shared<const T>(std::move(value));
    m.type_ = &typeid(T);
    return m;
  }

  bool empty() const { return type_ == nullptr; }

  template <typename T>
  const T& as() const {
    if (!holds<T>()) {
      throw MessageTypeError(std::string("Message payload is ") +
                             (type_ != nullptr ? type_->name() : "<empty>") + ", requested " +
                             typeid(T).name());
    }
    return *static_cast<const T*>(payload_.get());
  }

  /// True iff the payload's type is exactly T (no conversions).
  template <typename T>
  bool holds() const {
    return type_ != nullptr && *type_ == typeid(T);
  }

 private:
  std::shared_ptr<const void> payload_;
  const std::type_info* type_ = nullptr;
};

}  // namespace samoa
