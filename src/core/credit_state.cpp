#include "core/credit_state.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "sim/component.hpp"
#include "vec/vec.hpp"

namespace cbus::core {

CreditState::CreditState(CbaConfig config) : config_(std::move(config)) {
  config_.validate();
  owned_.resize(config_.n_masters);
  values_ = owned_.data();
  stride_ = 1;
  underflows_by_master_.resize(config_.n_masters, 0);
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    CBUS_EXPECTS(config_.initial[m] <= config_.saturation[m]);
    value(m) = config_.initial[m];
  }
}

CreditState::CreditState(CbaConfig config, const CreditLaneView& view)
    : config_(std::move(config)) {
  config_.validate();
  CBUS_EXPECTS_MSG(view.slots >= config_.n_masters,
                   "credit view smaller than n_masters");
  CBUS_EXPECTS(view.values != nullptr && view.incs != nullptr);
  values_ = view.values;
  incs_ = view.incs;
  stride_ = view.stride;
  underflows_by_master_.resize(config_.n_masters, 0);
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    CBUS_EXPECTS(config_.initial[m] <= config_.saturation[m]);
    value(m) = config_.initial[m];
    incs_[static_cast<std::size_t>(m) * stride_] = config_.increment[m];
  }
}

CreditSoA::CreditSoA(std::size_t lanes, const CbaConfig& config,
                     std::size_t slots_per_lane)
    : lanes_(lanes),
      slots_(std::max<std::size_t>(config.n_masters, slots_per_lane)),
      padded_((lanes + vec::kLaneAlign - 1) / vec::kLaneAlign *
              vec::kLaneAlign) {
  CBUS_EXPECTS(lanes >= 1);
  values_.resize(slots_ * padded_, 0);
  incs_.resize(slots_ * padded_, 0);
}

CreditLaneView CreditSoA::lane(std::size_t l) {
  CBUS_EXPECTS(l < lanes_);
  return CreditLaneView{values_.data() + l, incs_.data() + l, padded_,
                        slots_};
}

void CreditState::tick(MasterId holder) {
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    const std::uint64_t cap = config_.saturation[m];
    const std::uint64_t up = value(m) + config_.increment[m];
    if (m != holder) {
      // Recovery only, saturating at the cap.
      value(m) = std::min(up, cap);
      continue;
    }
    // Combined net update (recovery and occupancy charge in one step --
    // saturating the recovery before charging would silently lose one
    // unit per transaction and break the exact (N-1)*hold recovery
    // identity the fairness argument rests on). Clamp at zero like the
    // hardware counter would -- only reachable when MaxL was
    // under-estimated; tracked so experiments can detect it.
    if (config_.scale <= up) {
      value(m) = std::min(up - config_.scale, cap);
    } else {
      value(m) = 0;
      ++underflow_clamps_;
      ++underflows_by_master_[m];
    }
  }
}

void CreditState::skip(MasterId holder, Cycle k) {
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    const std::uint64_t cap = config_.saturation[m];
    const std::uint64_t inc = config_.increment[m];
    if (m == holder) {
      CBUS_ASSERT(k <= cycles_before_clamp(m));
      value(m) -= (config_.scale - inc) * k;
      continue;
    }
    // Overflow-safe min(value + inc*k, cap), without a division.
    std::uint64_t gain = 0;
    const bool overflow = __builtin_mul_overflow(inc, k, &gain);
    value(m) = overflow || gain >= cap - value(m) ? cap : value(m) + gain;
  }
}

Cycle CreditState::recovery_cycles(MasterId m, std::uint64_t target) const {
  CBUS_EXPECTS(m < config_.n_masters);
  if (value(m) >= target) return 0;
  const std::uint64_t inc = config_.increment[m];
  if (target > config_.saturation[m] || inc == 0) return sim::kNever;
  return (target - value(m) + inc - 1) / inc;
}

Cycle CreditState::cycles_before_clamp(MasterId holder) const {
  CBUS_EXPECTS(holder < config_.n_masters);
  // tick() clamps once value + increment < scale, i.e. value < net cost.
  const std::uint64_t net = config_.scale - config_.increment[holder];
  return net == 0 ? sim::kNever : value(holder) / net;
}

void CreditState::charge(MasterId m, Cycle occupancy) {
  CBUS_EXPECTS(m < config_.n_masters);
  const std::uint64_t units = config_.scale * occupancy;
  if (value(m) >= units) {
    value(m) -= units;
  } else {
    // Count the shortfall in CYCLES, the same unit tick() clamps in
    // (one clamp per cycle that could not be paid), so
    // credit.underflows compares across topologies.
    const std::uint64_t shortfall = units - value(m);
    const std::uint64_t clamped_cycles =
        (shortfall + config_.scale - 1) / config_.scale;
    underflow_clamps_ += clamped_cycles;
    underflows_by_master_[m] += clamped_cycles;
    value(m) = 0;
  }
}

std::uint64_t CreditState::budget(MasterId m) const {
  CBUS_EXPECTS(m < config_.n_masters);
  return value(m);
}

double CreditState::budget_cycles(MasterId m) const {
  return static_cast<double>(budget(m)) / static_cast<double>(config_.scale);
}

bool CreditState::saturated(MasterId m) const {
  CBUS_EXPECTS(m < config_.n_masters);
  return value(m) == config_.saturation[m];
}

void CreditState::set_budget(MasterId m, std::uint64_t units) {
  CBUS_EXPECTS(m < config_.n_masters);
  CBUS_EXPECTS(units <= config_.saturation[m]);
  value(m) = units;
}

void CreditState::set_increment(MasterId m, std::uint64_t units) {
  CBUS_EXPECTS(m < config_.n_masters);
  CBUS_EXPECTS_MSG(units >= 1 && units <= config_.scale,
                   "increment must be in [1, scale]");
  config_.increment[m] = units;
  if (incs_ != nullptr) {
    incs_[static_cast<std::size_t>(m) * stride_] = units;
  }
}

void CreditState::reset() {
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    value(m) = config_.initial[m];
  }
  underflow_clamps_ = 0;
  std::fill(underflows_by_master_.begin(), underflows_by_master_.end(), 0);
}

}  // namespace cbus::core
