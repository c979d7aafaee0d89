#include "cc/vca_basic.hpp"

#include <sstream>
#include <unordered_map>

#include "core/errors.hpp"

namespace samoa {

/// One declared microprotocol of a computation: its gate, resolved once at
/// admission, and the private version pv[p] claimed there.
struct VersionSlot {
  MicroprotocolId mp;
  VersionGate* gate = nullptr;
  std::uint64_t pv = 0;
};

class VCABasicComputationCC : public ComputationCC {
 public:
  VCABasicComputationCC(VCABasicController& ctrl, ComputationId k, std::vector<VersionSlot> slots)
      : ctrl_(ctrl), k_(k), slots_(std::move(slots)) {}

  void on_issue(HandlerId, const Handler& h) override {
    if (find(h.owner().id()) == nullptr) {
      std::ostringstream os;
      os << "isolated: computation " << k_ << " called handler '" << h.name()
         << "' of undeclared microprotocol '" << h.owner().name() << "'";
      throw IsolationError(os.str());
    }
  }

  void before_execute(const Handler& h) override {
    // on_issue already rejected undeclared microprotocols.
    const VersionSlot& slot = *find(h.owner().id());
    slot.gate->wait_exact(slot.pv - 1, ctrl_.stats_, h.owner().name().c_str());
  }

  void after_execute(const Handler&) override {}

  void on_complete() override {
    // Step 3: upgrade in admission order is implied — each wait_exact can
    // only be satisfied once every older computation upgraded, so the
    // iteration order over the slots is irrelevant for correctness.
    for (const VersionSlot& slot : slots_) {
      slot.gate->wait_exact(slot.pv - 1, ctrl_.stats_);
      slot.gate->set_lv(slot.pv);
    }
  }

 private:
  /// Linear scan: a declaration names a handful of microprotocols, so this
  /// beats hashing.
  const VersionSlot* find(MicroprotocolId mp) const {
    for (const VersionSlot& slot : slots_) {
      if (slot.mp == mp) return &slot;
    }
    return nullptr;
  }

  VCABasicController& ctrl_;
  ComputationId k_;
  std::vector<VersionSlot> slots_;
};

std::unique_ptr<ComputationCC> VCABasicController::admit(ComputationId k, const Isolation& spec) {
  stats_.admissions.add();
  const auto& members = spec.members();
  std::vector<VersionSlot> slots;
  slots.reserve(members.size());
  if (members.size() == 1) {
    // Fast path: one microprotocol means one counter, so the admission is
    // atomic by construction — a single lock-free fetch_add.
    stats_.admit_fast.add();
    const MicroprotocolId mp = members.front();
    VersionGate& gate = gates_.gate(mp);
    slots.push_back({mp, &gate, gate.admit(1, k.value())});
  } else {
    // Slow path: Step 1 must bump every member gate as one indivisible
    // step. Holding all member admission locks in mp-id order serializes
    // any two admissions that share gates, which keeps the version order
    // identical on every shared microprotocol (total wait-for order).
    stats_.admit_slow.add();
    OrderedAdmission locks(gates_, members);
    for (MicroprotocolId mp : members) {
      VersionGate& gate = gates_.gate(mp);
      slots.push_back({mp, &gate, gate.admit(1, k.value())});
    }
  }
  return std::make_unique<VCABasicComputationCC>(*this, k, std::move(slots));
}

std::vector<std::unique_ptr<ComputationCC>> VCABasicController::admit_batch(
    const std::vector<AdmitRequest>& reqs) {
  stats_.admissions.add(reqs.size());
  stats_.admissions_batched.add(reqs.size());
  std::vector<std::unique_ptr<ComputationCC>> out;
  out.reserve(reqs.size());

  bool all_single = true;
  for (const AdmitRequest& r : reqs) all_single &= (r.spec->members().size() == 1);

  if (all_single) {
    // One fetch_add per distinct gate claims a consecutive version range;
    // sub-versions are handed out in batch order, so on every gate the
    // batch is indistinguishable from admitting its members one by one.
    stats_.admit_fast.add(reqs.size());
    std::unordered_map<MicroprotocolId, std::uint64_t> counts;
    for (const AdmitRequest& r : reqs) ++counts[r.spec->members().front()];
    std::unordered_map<MicroprotocolId, std::uint64_t> next;
    for (const auto& [mp, n] : counts) {
      next.emplace(mp, gates_.gate(mp).claim_range(n) - n + 1);
    }
    for (const AdmitRequest& r : reqs) {
      const MicroprotocolId mp = r.spec->members().front();
      const std::uint64_t pv_k = next.at(mp)++;
      VersionGate& gate = gates_.gate(mp);
      gate.note_holder(pv_k, r.k.value());
      out.push_back(std::make_unique<VCABasicComputationCC>(
          *this, r.k, std::vector<VersionSlot>{{mp, &gate, pv_k}}));
    }
    return out;
  }

  // Mixed batch: one lock-ordered transaction over the union of all member
  // gates makes the whole burst a single indivisible admission step.
  stats_.admit_slow.add(reqs.size());
  std::vector<MicroprotocolId> union_mps;
  for (const AdmitRequest& r : reqs) {
    union_mps.insert(union_mps.end(), r.spec->members().begin(), r.spec->members().end());
  }
  OrderedAdmission locks(gates_, union_mps);
  for (const AdmitRequest& r : reqs) {
    std::vector<VersionSlot> slots;
    slots.reserve(r.spec->members().size());
    for (MicroprotocolId mp : r.spec->members()) {
      VersionGate& gate = gates_.gate(mp);
      slots.push_back({mp, &gate, gate.admit(1, r.k.value())});
    }
    out.push_back(std::make_unique<VCABasicComputationCC>(*this, r.k, std::move(slots)));
  }
  return out;
}

}  // namespace samoa
