#include "gc/swim.hpp"

#include <algorithm>
#include <bit>

namespace samoa::gc {

namespace {

/// Number of proxies asked to probe indirectly before suspecting.
constexpr std::size_t kIndirectProxies = 3;
/// A suspicion stands for this many probe periods before the suspect is
/// confirmed faulty (time for an alive refutation to gossip back).
constexpr std::uint32_t kSuspectPeriods = 3;
/// Max membership updates piggybacked on one ping/ack/ping-req.
constexpr std::size_t kPiggybackLimit = 8;

/// ceil(log2(n)) for n >= 1 (0 for n <= 1).
std::uint32_t log2_ceil(std::uint64_t n) {
  if (n <= 1) return 0;
  return static_cast<std::uint32_t>(std::bit_width(n - 1));
}

}  // namespace

SwimDetector::SwimDetector(const GcOptions& opts, const GcEvents& events, SiteId self,
                           View initial_view)
    : GcMicroprotocol("swim", opts),
      events_(events),
      self_(self),
      view_(std::move(initial_view)),
      // Distinct stream per site (and from RelComm's jitter stream).
      rng_(opts.rng_seed ^ (0xb5ad4eceda1ce2a9ull * (self.value() + 1))) {
  for (SiteId site : view_.members()) {
    if (site == self_) continue;
    members_.try_emplace(site);
    probe_order_.push_back(site);
  }
  probe_index_ = probe_order_.size();  // force a shuffle before the first probe

  on_wire_ = &register_handler("on_wire", [this](Context& ctx, const Message& m) {
    Outbox out;
    {
      auto lock = guard();
      const auto& fw = m.as<FromWire>();
      const auto now = options().now();
      std::unique_lock snap(snap_mu_);
      std::visit(
          [&](const auto& msg) {
            using T = std::decay_t<decltype(msg)>;
            // Piggybacked updates apply whatever the carrier message is —
            // dissemination is independent of the probe state machine.
            if constexpr (std::is_same_v<T, SwimPing> || std::is_same_v<T, SwimAck> ||
                          std::is_same_v<T, SwimPingReq>) {
              for (const auto& u : msg.updates) apply_update(u, now, out);
            }
            if constexpr (std::is_same_v<T, SwimPing>) {
              out.trigger(events_.transport_send,
                          Message::of(TransportSend{
                              fw.from, Wire{SwimAck{msg.seq, self_, make_updates(fw.from)}}}));
              acks_sent_.add();
            } else if constexpr (std::is_same_v<T, SwimPingReq>) {
              // Probe the target on the origin's behalf under our own seq;
              // the relay slot routes the eventual ack back.
              const std::uint64_t relay_seq = next_seq_++;
              relays_[relay_seq] =
                  Relay{fw.from, msg.seq, msg.target,
                        now + options().swim_probe_interval};
              out.trigger(events_.transport_send,
                          Message::of(TransportSend{
                              msg.target, Wire{SwimPing{relay_seq, make_updates(msg.target)}}}));
              probes_sent_.add();
            } else if constexpr (std::is_same_v<T, SwimAck>) {
              if (probe_.active && msg.seq == probe_.seq && msg.on_behalf_of == probe_.target) {
                probe_.active = false;  // target vouched for, period satisfied
              } else if (auto it = relays_.find(msg.seq); it != relays_.end()) {
                const Relay r = it->second;
                relays_.erase(it);
                out.trigger(events_.transport_send,
                            Message::of(TransportSend{
                                r.origin,
                                Wire{SwimAck{r.origin_seq, msg.on_behalf_of, make_updates(r.origin)}}}));
                acks_relayed_.add();
              }
            }
          },
          fw.wire);
    }
    out.flush(ctx);
  });

  tick_ = &register_handler("probe_tick", [this](Context& ctx, const Message&) {
    Outbox out;
    {
      auto lock = guard();
      const auto now = options().now();
      std::unique_lock snap(snap_mu_);

      // 1. Un-refuted suspicions harden into confirmed faulty. The site
      // stays a member (and stays probed) until the view-change machinery
      // evicts it — which is also what lets a partitioned-but-live peer
      // resurrect itself with a higher incarnation after the link heals.
      for (auto& [site, member] : members_) {
        if (member.status == SwimStatus::kSuspect && now >= member.suspect_expiry) {
          member.status = SwimStatus::kFaulty;
          confirmations_.add();
          enqueue_gossip({SwimStatus::kFaulty, site, member.incarnation});
        }
      }
      // 2. Expire relay slots whose acks never came.
      for (auto it = relays_.begin(); it != relays_.end();) {
        it = now >= it->second.expiry ? relays_.erase(it) : std::next(it);
      }
      // 3. Outstanding probe: escalate to indirect probing at the direct
      // deadline, suspect at the period deadline.
      if (probe_.active) {
        if (now >= probe_.period_deadline) {
          const SiteId target = probe_.target;
          probe_.active = false;
          suspect_locally(target, now, out);
        } else if (now >= probe_.direct_deadline && !probe_.indirect_sent) {
          probe_.indirect_sent = true;
          std::vector<SiteId> proxies;
          for (SiteId site : view_.members()) {
            if (site == self_ || site == probe_.target) continue;
            auto it = members_.find(site);
            if (it != members_.end() && it->second.status == SwimStatus::kAlive) {
              proxies.push_back(site);
            }
          }
          // Partial Fisher-Yates: the first k entries become the proxy set.
          const std::size_t k = std::min(kIndirectProxies, proxies.size());
          for (std::size_t i = 0; i < k; ++i) {
            const std::size_t j = i + static_cast<std::size_t>(
                                          rng_.next_below(proxies.size() - i));
            std::swap(proxies[i], proxies[j]);
            out.trigger(events_.transport_send,
                        Message::of(TransportSend{
                            proxies[i],
                            Wire{SwimPingReq{probe_.seq, probe_.target,
                                             make_updates(proxies[i])}}}));
            ping_reqs_sent_.add();
          }
        }
      }
      // 4. Start the next protocol period.
      if (now >= next_period_) {
        next_period_ = now + options().swim_probe_interval;
        periods_.add();
        if (auto target = next_probe_target()) {
          probe_ = Outstanding{*target, next_seq_++, now + options().swim_ack_timeout,
                               next_period_, false, true};
          out.trigger(events_.transport_send,
                      Message::of(TransportSend{
                          *target, Wire{SwimPing{probe_.seq, make_updates(*target)}}}));
          probes_sent_.add();
        }
      }
    }
    out.flush(ctx);
  });

  view_change_ = &register_handler("viewChange", [this](Context&, const Message& m) {
    auto lock = guard();
    const View next = m.as<View>();
    std::unique_lock snap(snap_mu_);
    view_ = next;
    for (auto it = members_.begin(); it != members_.end();) {
      it = view_.contains(it->first) ? std::next(it) : members_.erase(it);
    }
    for (SiteId site : view_.members()) {
      if (site == self_) continue;
      members_.try_emplace(site);  // joiners start Alive at incarnation 0
    }
    std::erase_if(gossip_, [this](const Gossip& g) {
      return g.update.site != self_ && !view_.contains(g.update.site);
    });
    if (probe_.active && !view_.contains(probe_.target)) probe_.active = false;
    probe_order_.clear();
    for (SiteId site : view_.members()) {
      if (site != self_) probe_order_.push_back(site);
    }
    probe_index_ = probe_order_.size();  // reshuffle on next pick
  });
}

void SwimDetector::apply_update(const SwimUpdate& u, Clock::time_point now, Outbox& out) {
  if (u.site == self_) {
    // Someone thinks we are suspect/faulty. Refute: outbid the accusation
    // with a fresh incarnation only we can issue.
    if (u.status != SwimStatus::kAlive && u.incarnation >= self_incarnation_) {
      self_incarnation_ = u.incarnation + 1;
      refutations_.add();
      enqueue_gossip({SwimStatus::kAlive, self_, self_incarnation_});
    }
    return;
  }
  auto it = members_.find(u.site);
  if (it == members_.end()) return;  // stale gossip about an evicted site
  Member& m = it->second;
  bool changed = false;
  switch (u.status) {
    case SwimStatus::kAlive:
      // A higher incarnation is proof of life issued by the subject
      // itself after the accusation — it overrides suspect and (unlike
      // strict SWIM, which removes faulty members immediately) also
      // confirmed-faulty, since here eviction is the view change's job
      // and a healed partition must be able to un-declare its victims.
      if (u.incarnation > m.incarnation) {
        if (m.status != SwimStatus::kAlive) revocations_.add();
        m.status = SwimStatus::kAlive;
        m.incarnation = u.incarnation;
        changed = true;
      }
      break;
    case SwimStatus::kSuspect:
      if (u.incarnation > m.incarnation ||
          (u.incarnation == m.incarnation && m.status == SwimStatus::kAlive)) {
        const bool newly = m.status == SwimStatus::kAlive;
        m.status = SwimStatus::kSuspect;
        m.incarnation = u.incarnation;
        m.suspect_expiry = suspect_deadline(now);
        changed = true;
        if (newly) {
          suspicions_.add();
          out.trigger_all(events_.suspect, Message::of(u.site));
        }
      }
      break;
    case SwimStatus::kFaulty:
      if (m.status != SwimStatus::kFaulty && u.incarnation >= m.incarnation) {
        const bool newly = m.status == SwimStatus::kAlive;
        m.status = SwimStatus::kFaulty;
        m.incarnation = std::max(m.incarnation, u.incarnation);
        changed = true;
        if (newly) {
          suspicions_.add();
          out.trigger_all(events_.suspect, Message::of(u.site));
        }
      }
      break;
  }
  if (changed) enqueue_gossip({m.status, u.site, m.incarnation});
}

void SwimDetector::enqueue_gossip(SwimUpdate u) {
  // At most one buffered update per subject: a newer state obsoletes
  // whatever was still in flight about the same site.
  std::erase_if(gossip_, [&](const Gossip& g) { return g.update.site == u.site; });
  gossip_.push_back({u, gossip_budget()});
}

std::vector<SwimUpdate> SwimDetector::make_updates(std::optional<SiteId> refute_hint) {
  std::vector<SwimUpdate> updates;
  // Freshest-first: highest remaining budget means most recently learned.
  // stable_sort keeps insertion order among equals, so selection is
  // deterministic and every buffered update eventually gets its turns.
  std::stable_sort(gossip_.begin(), gossip_.end(),
                   [](const Gossip& a, const Gossip& b) { return a.sends_left > b.sends_left; });
  for (auto& g : gossip_) {
    if (updates.size() >= kPiggybackLimit) break;
    updates.push_back(g.update);
    --g.sends_left;
  }
  std::erase_if(gossip_, [](const Gossip& g) { return g.sends_left == 0; });
  // Refutation hint: if we believe the addressee itself is suspect or
  // faulty, say so to its face — a live addressee then refutes with a
  // bumped incarnation instead of waiting for third-party gossip that may
  // have aged out of every buffer.
  if (refute_hint) {
    if (auto it = members_.find(*refute_hint);
        it != members_.end() && it->second.status != SwimStatus::kAlive &&
        std::none_of(updates.begin(), updates.end(),
                     [&](const SwimUpdate& u) { return u.site == *refute_hint; })) {
      updates.push_back({it->second.status, *refute_hint, it->second.incarnation});
    }
  }
  updates_piggybacked_.add(updates.size());
  return updates;
}

void SwimDetector::suspect_locally(SiteId site, Clock::time_point now, Outbox& out) {
  auto it = members_.find(site);
  if (it == members_.end() || it->second.status != SwimStatus::kAlive) return;
  it->second.status = SwimStatus::kSuspect;
  it->second.suspect_expiry = suspect_deadline(now);
  suspicions_.add();
  enqueue_gossip({SwimStatus::kSuspect, site, it->second.incarnation});
  out.trigger_all(events_.suspect, Message::of(site));
}

std::optional<SiteId> SwimDetector::next_probe_target() {
  if (probe_order_.empty()) return std::nullopt;
  for (std::size_t scanned = 0; scanned <= probe_order_.size(); ++scanned) {
    if (probe_index_ >= probe_order_.size()) {
      // Randomized round-robin (SWIM section 4.3): every member is probed
      // exactly once per pass, passes are independently shuffled — worst
      // case detection time is bounded at 2 passes, unlike pure random
      // selection which starves targets with positive probability.
      for (std::size_t i = probe_order_.size() - 1; i > 0; --i) {
        const std::size_t j = static_cast<std::size_t>(rng_.next_below(i + 1));
        std::swap(probe_order_[i], probe_order_[j]);
      }
      probe_index_ = 0;
    }
    const SiteId site = probe_order_[probe_index_++];
    if (members_.contains(site)) return site;
  }
  return std::nullopt;
}

std::uint32_t SwimDetector::gossip_budget() const {
  // 3 * ceil(log2(view size)): the SWIM paper's lambda*log(n)
  // dissemination budget.
  return 3 * std::max<std::uint32_t>(1, log2_ceil(std::max<std::uint64_t>(view_.size(), 2)));
}

Clock::time_point SwimDetector::suspect_deadline(Clock::time_point now) const {
  return now + kSuspectPeriods * options().swim_probe_interval;
}

bool SwimDetector::is_suspected(SiteId site) {
  std::unique_lock snap(snap_mu_);
  auto it = members_.find(site);
  return it != members_.end() && it->second.status != SwimStatus::kAlive;
}

std::optional<SwimStatus> SwimDetector::status_of(SiteId site) {
  std::unique_lock snap(snap_mu_);
  auto it = members_.find(site);
  if (it == members_.end()) return std::nullopt;
  return it->second.status;
}

std::uint64_t SwimDetector::incarnation() const {
  std::unique_lock snap(snap_mu_);
  return self_incarnation_;
}

}  // namespace samoa::gc
