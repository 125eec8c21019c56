// Lane: the per-component clocks of one kernel lane (see the contract in
// sim/component.hpp). sim::Kernel drives one lane, sim::BatchKernel one
// per replica.
//
// Per component the lane keeps `synced` (the first cycle not yet folded
// into it) and `due` (its cached horizon) in two small contiguous
// arrays, so finding the next executed cycle is a min over `due` with
// no virtual call. While cycle t executes, `turn` is the index of the
// component whose turn it is: components before it have had their turn
// in t, the rest have not. Between cycles the lane sits at the next
// cycle with nobody's turn taken, which folds the same way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "sim/component.hpp"

namespace cbus::sim {

class Lane {
 public:
  Lane() = default;
  // Components point back at their lane: it never moves.
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;
  /// Unlinks the components still registered here (they stay usable,
  /// unclocked: wake and settle become no-ops).
  ~Lane();

  /// Append `component` to the tick order, its clock at the lane's
  /// current cycle. A component is clocked by one lane at a time: joining
  /// a lane leaves the previous one (a Multicore's components move from
  /// its own kernel into a batch lane on attach), whose slot stays empty.
  /// Non-owning; a component that is destroyed first leaves its lane.
  void add(Component& component) {
    if (component.lane_ != nullptr) component.lane_->unlink(component.slot_);
    component.lane_ = this;
    component.slot_ = static_cast<std::uint32_t>(components_.size());
    components_.push_back(&component);
    synced_.push_back(now_);
    due_.push_back(now_);
  }

  /// The tick order; a component that left the lane leaves a null slot.
  [[nodiscard]] std::span<Component* const> components() const noexcept {
    return components_;
  }

  /// Execute cycle `t`: in registration order, fold and tick every
  /// component due at t (a wake during the cycle can make a later one
  /// due), then re-ask the horizon of every component that ticked or was
  /// woken -- after the whole cycle, so a horizon sees the cycle's final
  /// state, exactly as if every component had been ticked.
  void execute(Cycle t) {
    now_ = t;
    const auto n = static_cast<std::uint32_t>(components_.size());
    for (turn_ = 0; turn_ < n; ++turn_) {
      if (due_[turn_] > t) continue;
      fold(turn_, t);
      components_[turn_]->tick(t);
      synced_[turn_] = t + 1;
      ++ticks_;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      if (due_[i] > t) continue;
      due_[i] = hold_ ? t + 1 : components_[i]->next_activity(t);
    }
    now_ = t + 1;
    turn_ = 0;
  }

  /// Execute cycle `t` ticking every component, due or not (Kernel::step
  /// and the staged batch loop): every clock stays current and every
  /// component is due again at t + 1.
  void step(Cycle t) {
    now_ = t;
    const auto n = static_cast<std::uint32_t>(components_.size());
    for (turn_ = 0; turn_ < n; ++turn_) {
      if (components_[turn_] == nullptr) continue;
      fold(turn_, t);
      components_[turn_]->tick(t);
      synced_[turn_] = t + 1;
      due_[turn_] = t + 1;
      ++ticks_;
    }
    now_ = t + 1;
    turn_ = 0;
  }

  /// The next cycle to execute after the last one: the earliest cached
  /// horizon, clamped to `limit`.
  [[nodiscard]] Cycle next(Cycle limit) const {
    Cycle horizon = limit;
    for (const Cycle due : due_) horizon = std::min(horizon, due);
    return std::max(horizon, now_);
  }

  /// Fold every component up to cycle `t` (>= the lane's cycle) and move
  /// the lane there: a stopped lane reads current everywhere.
  void sync(Cycle t) {
    for (std::uint32_t i = 0; i < components_.size(); ++i) {
      if (components_[i] != nullptr) fold(i, t);
    }
    now_ = t;
    turn_ = 0;
  }

  /// Make every component due in every cycle: each executed cycle then
  /// ticks every component, as a lockstep kernel would. Results are
  /// identical, only slower -- the reference the local clocks are tested
  /// against. Call before the first cycle.
  void hold_current() {
    hold_ = true;
    for (std::uint32_t i = 0; i < components_.size(); ++i) {
      if (components_[i] != nullptr) due_[i] = std::min(due_[i], now_);
    }
  }

  /// Component ticks executed so far (execute and step).
  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }

 private:
  friend class Component;
  friend void wake(Component* target, Cycle now);
  friend void settle(const Component* target);

  /// Empty slot `slot`: its component left. It is never due again.
  void unlink(std::uint32_t slot);

  void wake(std::uint32_t slot, Cycle now) {
    const bool had_turn = now < now_ || (now == now_ && slot < turn_);
    fold(slot, had_turn ? now + 1 : now);
    due_[slot] = std::min(due_[slot], now);
  }

  void settle(std::uint32_t slot) {
    fold(slot, slot < turn_ ? now_ + 1 : now_);
  }

  void fold(std::uint32_t slot, Cycle target) {
    if (synced_[slot] >= target) return;
    components_[slot]->skip(target - synced_[slot]);
    synced_[slot] = target;
  }

  std::vector<Component*> components_;
  std::vector<Cycle> synced_;
  std::vector<Cycle> due_;
  Cycle now_ = 0;           ///< the executing cycle, or the next one
  std::uint32_t turn_ = 0;  ///< components [0, turn_) had their turn
  bool hold_ = false;
  std::uint64_t ticks_ = 0;
};

/// Call before writing into `target` from outside its own tick (null and
/// unclocked targets are no-ops): folds it up to `now` -- through `now`
/// if it already had its turn in that cycle -- and marks it due, so the
/// kernel ticks it in `now` if its turn is still to come and re-asks its
/// horizon after the cycle. Being early is always safe.
inline void wake(Component* target, Cycle now) {
  if (target != nullptr && target->lane_ != nullptr) {
    target->lane_->wake(target->slot_, now);
  }
}

/// Call before reading `target`'s state directly: folds it up to its
/// lane's position (through the current cycle if it already had its
/// turn). Changes nothing a later cycle sees, so it takes a const
/// component.
inline void settle(const Component* target) {
  if (target != nullptr && target->lane_ != nullptr) {
    target->lane_->settle(target->slot_);
  }
}

}  // namespace cbus::sim
