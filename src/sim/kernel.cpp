#include "sim/kernel.hpp"

namespace cbus::sim {

void Kernel::step() {
  lane_.step(clock_.now());
  clock_.advance();
  ++executed_;
}

void Kernel::run(Cycle cycles) {
  (void)run_until([] { return false; }, cycles);
}

}  // namespace cbus::sim
