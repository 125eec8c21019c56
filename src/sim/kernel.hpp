// The cycle-driven simulation kernel.
//
// Deliberately simple: a vector of non-owning component pointers ticked in
// registration order under a single clock. Determinism is a hard
// requirement (MBPTA needs exact reproducibility from a seed), so there is
// no event heap and no unordered container anywhere on the tick path.
//
// Every component runs on its own clock (see sim::Component and
// sim::Lane): an executed cycle ticks only the components due in it, and
// the kernel then jumps to the earliest cached horizon -- a min over a
// small array, no virtual call. A component that is not due lags behind
// and is folded with skip() when something wakes or reads it, or when
// the run stops. A component without a horizon is ticked every cycle,
// and stop predicates are polled after executed cycles only. Results are
// identical to ticking every component every cycle, which step() still
// does -- it is the oracle the skip-parity tests compare run_until
// against, beside hold_components_current().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "sim/clock.hpp"
#include "sim/component.hpp"
#include "sim/lane.hpp"

namespace cbus::sim {

/// Precondition shared by the kernels' templated run_until: predicates
/// that can be null (function pointers, std::function) must not be.
template <class Done>
void expect_predicate(const Done& done) {
  if constexpr (std::is_constructible_v<Done, std::nullptr_t>) {
    CBUS_EXPECTS_MSG(done != nullptr, "run_until needs a done predicate");
  }
}

class Kernel {
 public:
  Kernel() = default;

  Kernel(const Kernel&) = delete;  // components point at its lane
  Kernel& operator=(const Kernel&) = delete;

  /// Register a component; ticked in registration order. Kernel does not own
  /// the component; the caller (the platform) guarantees its lifetime.
  void add(Component& component) { lane_.add(component); }

  [[nodiscard]] Cycle now() const noexcept { return clock_.now(); }

  /// Advance exactly `cycles` cycles (quiet ones skipped).
  void run(Cycle cycles);

  /// Run until `done()` returns true or `max_cycles` elapse. Returns true
  /// iff `done()` fired. `done` is evaluated exactly once after every
  /// EXECUTED cycle -- never before the first one, never twice for the
  /// same cycle, never for a skipped quiet cycle (nothing a predicate can
  /// observe changes there) -- so a side-effecting predicate counts
  /// executed cycles. A predicate that is already true therefore still
  /// executes one cycle before it is seen. BatchKernel honours the same
  /// contract. Any callable `bool()` is accepted; a null one throws.
  template <class Done>
  bool run_until(const Done& done, Cycle max_cycles) {
    expect_predicate(done);
    const Cycle end = horizon_after(clock_.now(), max_cycles);
    while (clock_.now() < end) {
      lane_.execute(clock_.now());
      clock_.advance();
      ++executed_;
      if (done()) {
        lane_.sync(clock_.now());
        return true;
      }
      clock_.advance(lane_.next(end) - clock_.now());
    }
    lane_.sync(clock_.now());
    return false;
  }
  bool run_until(std::nullptr_t, Cycle) {
    CBUS_EXPECTS_MSG(false, "run_until needs a done predicate");
    return false;
  }

  /// Execute a single cycle, ticking every component (no skipping).
  void step();

  /// Make every component due in every executed cycle (Lane::hold_current):
  /// the skip-parity tests' reference. Call before the first cycle.
  void hold_components_current() { lane_.hold_current(); }

  /// Cycles actually ticked; now() minus this is what skipping saved.
  [[nodiscard]] std::uint64_t executed_cycles() const noexcept {
    return executed_;
  }

  /// Component ticks executed (each executed cycle ticks only the due
  /// components; step() ticks them all).
  [[nodiscard]] std::uint64_t component_ticks() const noexcept {
    return lane_.ticks();
  }

  [[nodiscard]] std::size_t component_count() const noexcept {
    return lane_.components().size();
  }

  /// Registered components in tick order (the batched campaign path
  /// re-registers them into a BatchKernel lane).
  [[nodiscard]] std::span<Component* const> components() const noexcept {
    return lane_.components();
  }

 private:
  Clock clock_;
  Lane lane_;
  std::uint64_t executed_ = 0;
};

}  // namespace cbus::sim
