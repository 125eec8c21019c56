#include "core/credit_filter.hpp"

#include <algorithm>
#include <bit>

#include "sim/component.hpp"

namespace cbus::core {

Cycle CreditFilter::next_activity(std::uint32_t pending, MasterId holder,
                                  Cycle now) const {
  Cycle horizon = holder == kNoMaster
                      ? sim::kNever
                      : sim::horizon_after(
                            now + 1, state_.cycles_before_clamp(holder));
  const CbaConfig& cfg = state_.config();
  while (pending != 0) {
    const auto m = static_cast<MasterId>(std::countr_zero(pending));
    pending &= pending - 1;
    const Cycle ticks = state_.recovery_cycles(m, cfg.threshold[m]);
    horizon = std::min(
        horizon, sim::horizon_after(now, std::max<Cycle>(ticks, 1)));
  }
  return horizon;
}

bus::HwCost CreditFilter::hw_cost() const {
  const CbaConfig& cfg = state_.config();
  unsigned total_bits = 0;
  for (MasterId m = 0; m < cfg.n_masters; ++m) {
    unsigned bits = 0;
    for (std::uint64_t v = cfg.saturation[m]; v != 0; v >>= 1) ++bits;
    total_bits += std::max(bits, 1u);
  }
  // Per master: saturating adder + threshold comparator ~ 2 LUTs per bit
  // on 4-LUT fabric, plus the AND into the request lines.
  const unsigned luts = 2 * total_bits + cfg.n_masters;
  return bus::HwCost{total_bits, luts,
                     "per-master saturating budget counter + threshold "
                     "comparator + request gating"};
}

}  // namespace cbus::core
