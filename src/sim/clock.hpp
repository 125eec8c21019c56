// The global bus clock. All components in the modelled SoC share one clock
// domain (the LEON3 prototype runs cores, bus, L2 and the memory controller
// front-end at the same 100 MHz clock).
#pragma once

#include "common/types.hpp"

namespace cbus::sim {

class Clock {
 public:
  [[nodiscard]] Cycle now() const noexcept { return now_; }

  void advance() noexcept { ++now_; }

  /// Jump `cycles` ahead (the kernels' quiescence skip).
  void advance(Cycle cycles) noexcept { now_ += cycles; }

  void reset() noexcept { now_ = 0; }

 private:
  Cycle now_ = 0;
};

}  // namespace cbus::sim
