// Component: anything clocked by the simulation kernel.
//
// Tick semantics (documented once, relied on everywhere): within a cycle the
// kernel ticks components in registration order. The platform registers
// cores first, then the bus, then memory-side models. A request raised by a
// core during cycle t is therefore visible to the bus arbiter in the same
// cycle t, and the paper's 1-cycle arbitration delay is modelled *inside*
// the bus (grant takes effect at t+1), not by tick ordering.
//
// Local clocks (the kernels' skipping contract): most cycles of a
// component are pure countdowns -- a core computing, a transfer in
// flight, credit recovering towards a threshold. Every component keeps a
// clock its lane (sim::Lane) manages: `synced`, the first cycle it has
// not yet accounted for, and `due`, its cached horizon
// next_activity(now) -- the next cycle at which its tick may do anything
// a closed-form skip(k) cannot fold. On an executed cycle t the kernel
// walks the components in registration order and acts only on those with
// `due <= t`: it folds their lag with skip(t - synced), ticks them, and
// after the cycle asks each component it ticked (or that was woken, see
// below) for its new horizon. The next executed cycle is the minimum of
// the cached horizons; a component that is not due is never ticked,
// asked or folded, so it lags behind the lane until something touches
// it. A component without a horizon keeps the default `now + 1` and is
// ticked in every cycle (tracers, the split bus, TDMA off-slot cycles
// via the bus's own horizon); stop predicates are polled after executed
// cycles only.
//
// Wakes: a horizon stays valid only while no other component acts on
// the component, so every write into a component from outside its own
// tick is preceded by sim::wake(target, now). The wake folds the target
// up to `now` -- through `now` when the target has already had its turn
// in that cycle (a fold does not commute with a write: credit recovery
// saturates at its cap) -- and marks it due, so the kernel ticks it in
// this cycle if its turn is still to come and re-asks its horizon after
// the cycle either way. A wake never asks for a horizon itself. The wake
// points: a request into the interconnect (the interconnect wakes
// itself, then the components that watch the master's pending state --
// the COMP-latch contenders watching the TuA); on_latch, on_grant and
// on_complete into a master (the bus wakes the master first); the
// controller's retune of the credit increments (it wakes the bus and
// the contenders whose horizons read them).
//
// Reads: a component whose state another one reads directly is brought
// up to date first with sim::settle(target), which folds it up to the
// lane's position and changes nothing a later cycle sees. The readers:
// virtual contenders reading BUDGi, the adaptive controller sampling bus
// statistics, obs::Timeline's per-cycle poll and Multicore's run harvest
// -- all through bus::BusPort::settle(), which folds the interconnect
// and then any lazily clocked parts behind it. When a lane stops (its
// predicate fired or the budget ran out) every component is folded to
// the lane's clock, so a finished run reads current everywhere.
//
// The same contract applies INSIDE a component made of clocked parts:
// bus::SegmentedInterconnect keeps one clock per segment bus, ticks only
// the due segments and folds a quiet one when something next writes into
// it; BusPort::settle() folds those parts too.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace cbus::sim {

class Lane;

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
  /// Leaves the lane clocking it, if any (sim::Lane).
  virtual ~Component();

  /// Advance this component by one cycle. `now` is the cycle being executed.
  virtual void tick(Cycle now) = 0;

  /// Quiescence horizon, asked after an executed cycle `now` in which
  /// this component ticked or was woken: the next cycle (> now) whose
  /// tick may do more than count down, or kNever when only another
  /// component's action (a wake) can change that. Every cycle in between
  /// must be a pure countdown that skip() reproduces exactly, provided
  /// nothing wakes this component meanwhile. Returning early is always
  /// safe (it only costs a tick); returning late is a bug. Must not
  /// change state. The default ticks every cycle.
  [[nodiscard]] virtual Cycle next_activity(Cycle now) const {
    return now + 1;
  }

  /// Fold `k` quiet cycles (k >= 1, all before this component's horizon)
  /// as if each had been ticked. Only called when next_activity allowed
  /// it, so the default never runs for k > 0.
  virtual void skip(Cycle /*k*/) {}

  [[nodiscard]] std::string_view name() const noexcept { return name_; }

 private:
  friend class Lane;
  friend void wake(Component* target, Cycle now);
  friend void settle(const Component* target);

  Lane* lane_ = nullptr;    ///< the lane clocking this one (null: none)
  std::uint32_t slot_ = 0;  ///< its index in that lane
  std::string name_;
};

}  // namespace cbus::sim
