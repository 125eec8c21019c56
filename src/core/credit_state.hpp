// The per-master budget counters (BUDGi of Table I) and their update rules.
//
// Every cycle each counter gains increment[i] units, saturating at its cap;
// the master holding the bus additionally pays `scale` units in the same
// cycle (net -(scale - increment) while holding, the paper's "-4" with the
// "+1" folded in). A master is eligible when its budget has reached the
// threshold -- which guarantees it can pay for any transaction up to MaxL
// without the counter underflowing. If a transaction exceeds MaxL (a
// mis-configured upper bound, explored by the MaxL ablation), the counter
// clamps at zero like its hardware counterpart and the event is counted.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "core/cba_config.hpp"

namespace cbus::core {

/// A strided window into a CreditSoA arena: slot i of this lane lives at
/// values[i * stride] (and its recovery increment at incs[i * stride]).
/// The COUNTER-MAJOR layout puts slot i of consecutive lanes at
/// consecutive addresses (stride == padded lane count), so the batch
/// credit engine updates one slot across every lane as one vertical
/// vector operation; a CreditState over the view reads and writes the
/// very same words scalar-wise, which is what keeps the engine and
/// classic paths bit-identical by construction.
struct CreditLaneView {
  std::uint64_t* values = nullptr;
  std::uint64_t* incs = nullptr;
  std::size_t stride = 0;  ///< elements between consecutive slots
  std::size_t slots = 0;   ///< slots visible through this view

  [[nodiscard]] bool empty() const noexcept { return values == nullptr; }

  /// Slots [offset, offset + n) as their own view (the segmented
  /// interconnect carves one lane into per-segment credit states).
  [[nodiscard]] CreditLaneView subview(std::size_t offset,
                                       std::size_t n) const {
    CBUS_EXPECTS(offset + n <= slots);
    return CreditLaneView{values + offset * stride, incs + offset * stride,
                          stride, n};
  }
};

class CreditState {
 public:
  explicit CreditState(CbaConfig config);

  /// Counters live in caller-provided storage -- one lane of the
  /// counter-major CreditSoA arena used by batched campaigns -- instead
  /// of an own allocation. The view must outlive this object and span at
  /// least n_masters slots; behaviour is identical to the owning
  /// constructor.
  CreditState(CbaConfig config, const CreditLaneView& view);

  CreditState(const CreditState&) = delete;
  CreditState& operator=(const CreditState&) = delete;
  CreditState(CreditState&&) = default;
  CreditState& operator=(CreditState&&) = default;

  /// One clock edge: recovery for everyone, occupancy charge for `holder`
  /// (pass kNoMaster when the bus is idle or arbitrating).
  void tick(MasterId holder);

  /// k ticks of tick(holder) in closed form -- the kernels' quiescence
  /// fold: recovery saturates (credit = min(credit + increment*k, cap)),
  /// the holder pays scale - increment per cycle. Precondition: k <=
  /// cycles_before_clamp(holder) (a clamp is an event, never folded).
  void skip(MasterId holder, Cycle k);

  /// Idle ticks (no occupancy charge) until master m's budget reaches
  /// `target` units: 0 when it already has, sim::kNever when the cap
  /// lies below `target`.
  [[nodiscard]] Cycle recovery_cycles(MasterId m, std::uint64_t target) const;

  /// Ticks `holder` can hold the bus and pay its full charge before the
  /// first clamp at zero; sim::kNever when holding costs nothing net
  /// (increment == scale).
  [[nodiscard]] Cycle cycles_before_clamp(MasterId holder) const;

  /// Burst debit of `occupancy` cycles against master m's budget (at
  /// `scale` units per cycle), clamping at zero like the hardware
  /// counter and counting the clamp. Used by the segmented interconnect
  /// to charge a master's HOME budget for the cycles its transaction
  /// occupied foreign segments, so the Table-I equation
  /// budget = initial + increment*t - scale*total_path_occupancy keeps
  /// holding per master across contention points.
  void charge(MasterId m, Cycle occupancy);

  /// Budget of master m, in scaled units.
  [[nodiscard]] std::uint64_t budget(MasterId m) const;

  /// Budget of master m, in cycles of credit (units / scale).
  [[nodiscard]] double budget_cycles(MasterId m) const;

  /// True iff master m's budget has reached its eligibility threshold.
  /// Inline: the bus consults eligibility on every arbitration, which in
  /// a batched campaign happens millions of times per second.
  [[nodiscard]] bool eligible(MasterId m) const {
    CBUS_EXPECTS(m < config_.n_masters);
    return value(m) >= config_.threshold[m];
  }

  /// Restrict a pending mask to eligible masters.
  [[nodiscard]] std::uint32_t eligible_mask(std::uint32_t pending) const {
    std::uint32_t mask = 0;
    for (MasterId m = 0; m < config_.n_masters; ++m) {
      if (((pending >> m) & 1u) && eligible(m)) mask |= 1u << m;
    }
    return mask;
  }

  /// True iff the counter is at its saturation cap (Table I's BUDGi == 228).
  [[nodiscard]] bool saturated(MasterId m) const;

  /// Force a budget value (WCET mode zeroes the TuA's budget at run start).
  void set_budget(MasterId m, std::uint64_t units);

  /// Retune master m's Table-I recovery increment (ctrl feedback loop).
  /// Takes effect from the next tick; the budget counter is untouched.
  /// Requires 1 <= units <= scale (a zero increment would strand the
  /// master below threshold forever).
  void set_increment(MasterId m, std::uint64_t units);

  /// Restore every counter to its configured initial value.
  void reset();

  /// Attribute one clamped cycle of master m to this state. The batch
  /// credit engine performs the Table-I update vertically in the SoA
  /// arena and routes the (cold) clamp events back here, so
  /// underflow_clamps() counts identically on both paths.
  void note_clamp(MasterId m) {
    CBUS_EXPECTS(m < config_.n_masters);
    ++underflow_clamps_;
    ++underflows_by_master_[m];
  }

  /// Cycles on which a holder's counter could not pay the full occupancy
  /// charge and clamped at zero (only possible when MaxL is under-estimated
  /// or the threshold is configured below the worst-case cost).
  [[nodiscard]] std::uint64_t underflow_clamps() const noexcept {
    return underflow_clamps_;
  }

  /// Per-master share of underflow_clamps() (same unit: clamped cycles).
  /// Lets observability attribute each clamp to the master whose counter
  /// bottomed out; the sum over masters equals the global count.
  [[nodiscard]] std::uint64_t underflow_clamps(MasterId m) const {
    CBUS_EXPECTS(m < config_.n_masters);
    return underflows_by_master_[m];
  }

  [[nodiscard]] const CbaConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] std::uint64_t& value(MasterId m) noexcept {
    return values_[static_cast<std::size_t>(m) * stride_];
  }
  [[nodiscard]] std::uint64_t value(MasterId m) const noexcept {
    return values_[static_cast<std::size_t>(m) * stride_];
  }

  CbaConfig config_;
  /// Backing store when self-owned (empty in the SoA-view case). A vector
  /// move keeps its heap buffer, so `values_` survives moves either way.
  std::vector<std::uint64_t> owned_;
  /// The live counters: `owned_` (stride 1) or a CreditSoA lane view.
  std::uint64_t* values_ = nullptr;
  /// Arena mirror of config_.increment (view mode; null when owned).
  /// set_increment writes through so the engine's vertical tick reads
  /// the retuned rate the same cycle a scalar tick would.
  std::uint64_t* incs_ = nullptr;
  std::size_t stride_ = 1;
  std::uint64_t underflow_clamps_ = 0;
  /// Per-master clamp attribution; bumped only on the cold clamp paths.
  std::vector<std::uint64_t> underflows_by_master_;
};

/// Counter-major credit storage for a batch of replicas: slot m of lane l
/// lives at row(m)[l], with the lane count padded to vec::kLaneAlign so
/// one slot's counters across all lanes form a contiguous, vector-width
/// row. The batch credit engine ticks whole rows vertically; the classic
/// path hands lane(l) (a strided CreditLaneView) to each replica's
/// CreditState/CreditFilter and runs exactly the scalar update it always
/// has -- over the same words. The arena must outlive its users.
class CreditSoA {
 public:
  /// `slots_per_lane` widens a lane beyond n_masters counters -- the
  /// segmented interconnect carves one lane into per-segment credit
  /// states (cores + bridge-port slots). 0 means n_masters.
  CreditSoA(std::size_t lanes, const CbaConfig& config,
            std::size_t slots_per_lane = 0);

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }
  [[nodiscard]] std::size_t slots_per_lane() const noexcept {
    return slots_;
  }
  /// Lane count rounded up to vec::kLaneAlign -- the row length.
  [[nodiscard]] std::size_t padded_lanes() const noexcept { return padded_; }

  /// Lane `l`'s strided counter view (sized slots_per_lane()).
  [[nodiscard]] CreditLaneView lane(std::size_t l);

  /// Slot `m`'s value row across lanes (padded_lanes() elements).
  [[nodiscard]] std::uint64_t* values_row(std::size_t m) {
    CBUS_EXPECTS(m < slots_);
    return values_.data() + m * padded_;
  }
  /// Slot `m`'s increment row across lanes (padded_lanes() elements).
  [[nodiscard]] const std::uint64_t* incs_row(std::size_t m) const {
    CBUS_EXPECTS(m < slots_);
    return incs_.data() + m * padded_;
  }

 private:
  std::size_t lanes_;
  std::size_t slots_;
  std::size_t padded_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> incs_;
};

}  // namespace cbus::core
