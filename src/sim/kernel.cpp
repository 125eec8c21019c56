#include "sim/kernel.hpp"

#include <algorithm>

namespace cbus::sim {

Cycle quiesce(std::span<Component* const> components, Cycle now,
              Cycle limit) {
  const Cycle next = now + 1;
  Cycle horizon = limit;
  for (const Component* component : components) {
    // Early out: one component due next cycle rules out any jump.
    if (horizon <= next) return next;
    horizon = std::min(horizon, component->next_activity(now));
  }
  if (horizon <= next) return next;
  const Cycle quiet = horizon - next;
  for (Component* component : components) component->skip(quiet);
  return horizon;
}

void Kernel::step() {
  const Cycle now = clock_.now();
  for (Component* component : components_) component->tick(now);
  clock_.advance();
  ++executed_;
}

void Kernel::run(Cycle cycles) {
  (void)run_until([] { return false; }, cycles);
}

}  // namespace cbus::sim
