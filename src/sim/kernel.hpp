// The cycle-driven simulation kernel.
//
// Deliberately simple: a vector of non-owning component pointers ticked in
// registration order under a single clock. Determinism is a hard
// requirement (MBPTA needs exact reproducibility from a seed), so there is
// no event heap and no unordered container anywhere on the tick path.
//
// Quiet cycles are not ticked: after every executed cycle the kernel jumps
// to the earliest component horizon. The cycles in between are pure
// countdowns that every component folds with skip() (see sim::Component);
// a component without a horizon is ticked every cycle, and stop
// predicates are polled after executed cycles only. Results are
// identical to ticking every cycle, which step() still does -- it is the
// oracle the skip-parity tests compare run_until against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "sim/clock.hpp"
#include "sim/component.hpp"

namespace cbus::sim {

/// The kernels' quiescence jump, after cycle `now` was executed: returns
/// the next cycle to execute -- the minimum of the components' horizons,
/// clamped to `limit` and at least now + 1 -- after every component has
/// folded the skipped cycles in between.
[[nodiscard]] Cycle quiesce(std::span<Component* const> components,
                            Cycle now, Cycle limit);

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

  /// Register a component; ticked in registration order. Kernel does not own
  /// the component; the caller (the platform) guarantees its lifetime.
  void add(Component& component) { components_.push_back(&component); }

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
      step();
      if (done()) return true;
      clock_.advance(quiesce(components_, clock_.now() - 1, end) -
                     clock_.now());
    }
    return false;
  }
  bool run_until(std::nullptr_t, Cycle) {
    CBUS_EXPECTS_MSG(false, "run_until needs a done predicate");
    return false;
  }

  /// Execute a single cycle, ticking every component (no skipping).
  void step();

  /// Cycles actually ticked; now() minus this is what skipping saved.
  [[nodiscard]] std::uint64_t executed_cycles() const noexcept {
    return executed_;
  }

  [[nodiscard]] std::size_t component_count() const noexcept {
    return components_.size();
  }

  /// Registered components in tick order (the batched campaign path
  /// re-registers them into a BatchKernel lane).
  [[nodiscard]] std::span<Component* const> components() const noexcept {
    return components_;
  }

 private:
  Clock clock_;
  std::vector<Component*> components_;
  std::uint64_t executed_ = 0;
};

}  // namespace cbus::sim
