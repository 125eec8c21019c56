// Component: anything clocked by the simulation kernel.
//
// Tick semantics (documented once, relied on everywhere): within a cycle the
// kernel ticks components in registration order. The platform registers
// cores first, then the bus, then memory-side models. A request raised by a
// core during cycle t is therefore visible to the bus arbiter in the same
// cycle t, and the paper's 1-cycle arbitration delay is modelled *inside*
// the bus (grant takes effect at t+1), not by tick ordering.
//
// Quiescence (the kernels' skipping contract): most cycles of a lane are
// pure countdowns -- a core computing, a transfer in flight, credit
// recovering towards a threshold. After every EXECUTED cycle the kernels
// ask each component for its horizon, next_activity(now): the next cycle
// at which its tick may do anything a closed-form skip(k) cannot fold.
// The lane jumps to the minimum horizon: every component folds the k
// cycles in between with skip(k), and nothing is ticked for them. Since
// no component acts in a skipped cycle, no callback fires there either,
// so horizons computed after the executed cycle stay valid across the
// jump; stop predicates are polled after executed cycles only. A
// component without a horizon keeps the default `now + 1` and is ticked
// every cycle (tracers, the split bus).
//
// Local clocks: the same contract applies INSIDE a component made of
// clocked parts. bus::SegmentedInterconnect keeps one clock per segment
// bus: its tick runs only the segments whose own horizon has arrived,
// and a quiet segment is folded in one skip when something next writes
// into it. Between touches such a part lags behind the kernel's clock,
// so state of it that other components read directly (the credit
// filters behind the segments: virtual contenders' COMP latches, the
// tracer, run harvest) is read after bus::BusPort::settle(), which folds
// every part up to the component's clock and changes nothing a later
// cycle sees.
#pragma once

#include <limits>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace cbus::sim {

/// Horizon of a component that stays quiet until ANOTHER component acts
/// (e.g. a core blocked on a bus completion callback).
inline constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

/// `base + delta`, saturating at kNever (delta may itself be kNever).
[[nodiscard]] constexpr Cycle horizon_after(Cycle base, Cycle delta) noexcept {
  return delta >= kNever - base ? kNever : base + delta;
}

class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;
  virtual ~Component() = default;

  /// Advance this component by one cycle. `now` is the cycle being executed.
  virtual void tick(Cycle now) = 0;

  /// Quiescence horizon, asked after cycle `now` was executed: the next
  /// cycle (> now) whose tick may do more than count down, or kNever when
  /// only another component's action can wake this one. Every cycle in
  /// between must be a pure countdown that skip() reproduces exactly,
  /// provided no other component acts meanwhile. Returning early is
  /// always safe (it only costs an executed quiet cycle); returning late
  /// is a bug. Must not change state. The default ticks every cycle.
  [[nodiscard]] virtual Cycle next_activity(Cycle now) const {
    return now + 1;
  }

  /// Fold `k` quiet cycles (k >= 1, all before this component's horizon)
  /// as if each had been ticked. Only called when next_activity allowed
  /// it, so the default never runs for k > 0.
  virtual void skip(Cycle /*k*/) {}

  [[nodiscard]] std::string_view name() const noexcept { return name_; }

 private:
  std::string name_;
};

}  // namespace cbus::sim
