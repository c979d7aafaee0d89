// Membership — consistent group views (paper Section 3).
//
//   handler joinleave (op, site): trigger ABcast [op site];
//   handler deliverView (op, site): view = view op site;
//                                   triggerAll ViewChange view;
//
// View operations travel through atomic broadcast, so every member applies
// them in the same order and all local views stay consistent. A site being
// joined receives the freshly-installed view directly (ViewInstall) from
// every member of the previous view — redundant on purpose, since the
// install travels over the raw transport (no retransmission) and a lost
// install would strand the joiner. The install carries the ordering
// catch-up floor (see ViewInstall in wire.hpp); duplicates are harmless
// because the floor is max-merged and same-id installs are not
// re-installed. This is the state-transfer shortcut documented in
// DESIGN.md.
#pragma once

#include <string>
#include <vector>

#include "gc/events.hpp"
#include "gc/gc_mp.hpp"
#include "gc/view.hpp"
#include "util/stats.hpp"

namespace samoa::gc {

class Membership : public GcMicroprotocol {
 public:
  Membership(const GcOptions& opts, const GcEvents& events, SiteId self, View initial_view);

  const Handler* joinleave_handler() const { return joinleave_; }
  const Handler* on_adeliver_handler() const { return on_adeliver_; }
  const Handler* on_install_handler() const { return on_install_; }

  /// Encoding of membership operations inside AppMessage::data.
  static std::string encode_op(char op, SiteId site);
  /// Returns true and fills op/site if the payload is a membership op.
  static bool decode_op(const std::string& data, char& op, SiteId& site);

  View view_snapshot();
  std::vector<View> installed_views();

  /// Joins completed via a received ViewInstall carrying a catch-up floor —
  /// i.e. this incarnation entered an existing group through the
  /// state-transfer path (the bootstrap install of view 1 has no floor
  /// and does not count).
  std::uint64_t joins_completed() const { return joins_completed_.value(); }

 private:
  void install(Outbox& out, const View& next);

  const GcEvents* events_;
  SiteId self_;
  View view_;
  std::vector<View> history_;
  Counter joins_completed_;
  mutable std::mutex snap_mu_;

  const Handler* joinleave_ = nullptr;
  const Handler* on_adeliver_ = nullptr;
  const Handler* on_install_ = nullptr;
};

}  // namespace samoa::gc
