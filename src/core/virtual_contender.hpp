// WCET-estimation-mode contender (paper §III-B/C, Table I).
//
// During analysis, cores 2..4 are replaced by request generators that
// produce the probabilistic worst-case contention for the task under
// analysis (TuA, master 0):
//
//  * REQi is forced: a contender always has a request "ready".
//  * A granted contender keeps the bus busy for MaxL (56) cycles.
//  * COMPi latches when the contender's budget is full (BUDGi == 228) AND
//    the TuA has a request pending (REQ1); it is reset when the contender
//    is granted. A contender competes -- i.e. actually raises its request
//    towards the arbiter -- only while COMPi is set. This makes contenders
//    greedy exactly when they can hurt the TuA, while never wasting budget
//    when the TuA is idle.
//
// The same class also models the *non-CBA* maximum-contention generator
// (always compete, no budget/COMP gating) used for the RP baseline, via
// ContenderPolicy.
#pragma once

#include <cstdint>

#include "bus/interfaces.hpp"
#include "core/credit_state.hpp"
#include "sim/component.hpp"

namespace cbus::core {

enum class ContenderPolicy : std::uint8_t {
  /// Always have a request raised (baseline maximum contention, no CBA).
  kAlwaysCompete,
  /// Table I behaviour: compete only while the COMP latch is set.
  kCompLatch,
};

struct VirtualContenderConfig {
  MasterId self = 1;
  MasterId tua = 0;
  Cycle hold = 56;  ///< bus occupancy per grant (MaxL in WCET mode)
  ContenderPolicy policy = ContenderPolicy::kCompLatch;
  /// The slot this contender's BUDGi occupies in the CreditState it
  /// watches. kNoMaster means `self` -- the single-bus case; on a
  /// segmented interconnect each segment keeps its own credit state and
  /// the contender watches its LOCAL slot there.
  MasterId credit_slot = kNoMaster;
};

class VirtualContender final : public sim::Component, public bus::BusMaster {
 public:
  /// `credits` may be null only for kAlwaysCompete (no budget to watch).
  VirtualContender(const VirtualContenderConfig& config, bus::BusPort& bus,
                   const CreditState* credits);

  void tick(Cycle now) override;

  /// Quiet while its request is pending or holding the bus; otherwise
  /// due next cycle -- except a COMP-latch contender waiting for its
  /// budget to saturate (the TuA pending), which wakes on the cycle it
  /// first reads BUDGi at the cap.
  [[nodiscard]] Cycle next_activity(Cycle now) const override;

  /// A quiet always-compete tick only re-asserts COMP.
  void skip(Cycle k) override;

  void on_grant(const bus::BusRequest& request, Cycle now,
                Cycle hold) override;
  void on_complete(const bus::BusRequest& request, Cycle now) override;

  [[nodiscard]] bool comp() const noexcept { return comp_; }
  [[nodiscard]] std::uint64_t grants() const noexcept { return grants_; }

 private:
  [[nodiscard]] bool budget_full() const;
  [[nodiscard]] MasterId credit_slot() const noexcept {
    return config_.credit_slot == kNoMaster ? config_.self
                                            : config_.credit_slot;
  }

  VirtualContenderConfig config_;
  bus::BusPort& bus_;
  const CreditState* credits_;
  bool comp_ = false;
  std::uint64_t grants_ = 0;
};

}  // namespace cbus::core
