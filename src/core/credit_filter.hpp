// CreditFilter: plugs the CBA credit state into the bus as its eligibility
// filter (paper §III-A: "CBA acts as a filter to determine the pending
// requests that are eligible to be arbitrated: only those whose core has
// MaxL budget can be arbitrated. Then, any arbitration policy can be
// applied.").
#pragma once

#include "bus/arbiter.hpp"
#include "bus/interfaces.hpp"
#include "core/credit_state.hpp"

namespace cbus::core {

class CreditFilter final : public bus::EligibilityFilter {
 public:
  explicit CreditFilter(CbaConfig config) : state_(std::move(config)) {}

  /// SoA-view constructor for batched campaigns: the counters live in an
  /// external CreditSoA lane (see CreditState).
  CreditFilter(CbaConfig config, const CreditLaneView& view)
      : state_(std::move(config), view) {}

  [[nodiscard]] std::uint32_t eligible(std::uint32_t pending,
                                       Cycle /*now*/) override {
    return state_.eligible_mask(pending);
  }

  void on_cycle(MasterId holder, Cycle /*now*/) override {
    state_.tick(holder);
  }

  void on_grant(MasterId /*master*/, Cycle /*now*/) override {
    // Budget is charged per occupancy cycle in on_cycle; nothing to do at
    // grant time. (The COMP latch reset of Table I lives with the WCET-mode
    // virtual contenders, not in the filter.)
  }

  void on_remote_occupancy(MasterId master, Cycle occupancy) override {
    // Foreign-segment occupancy of a local master's transaction, charged
    // against its home budget as a burst debit -- the per-cycle recovery
    // already ran while the transaction was away, so the Table-I
    // equation covers the whole path (see CreditState::charge).
    state_.charge(master, occupancy);
  }

  /// The first cycle a pending master reaches its threshold (the tick
  /// runs before arbitration, so j recovery ticks make it eligible in the
  /// j-th cycle), or the holder's first clamp cycle.
  [[nodiscard]] Cycle next_activity(std::uint32_t pending, MasterId holder,
                                    Cycle now) const override;

  void skip(MasterId holder, Cycle k) override { state_.skip(holder, k); }

  void reset() override { state_.reset(); }

  [[nodiscard]] CreditState& state() noexcept { return state_; }
  [[nodiscard]] const CreditState& state() const noexcept { return state_; }

  /// Hardware-cost model of the CBA addition (paper §IV-B: "far less than
  /// 0.1%" FPGA area growth): per master one budget counter of
  /// ceil(log2(saturation)) bits, an adder, a comparator against the
  /// threshold and the eligibility AND gate.
  [[nodiscard]] bus::HwCost hw_cost() const;

 private:
  CreditState state_;
};

}  // namespace cbus::core
