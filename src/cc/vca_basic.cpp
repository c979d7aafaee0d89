#include "cc/vca_basic.hpp"

#include <sstream>

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

}  // namespace samoa
