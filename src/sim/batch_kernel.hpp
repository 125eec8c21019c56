// BatchKernel: N independent replicas of a platform advanced in lockstep.
//
// A campaign re-runs the same machine with fresh seeds; the replicas never
// interact, so the only thing a batch changes is the *iteration order*:
// instead of running replica 0 to completion, then replica 1, ..., every
// live lane advances through the same cycle window before any lane moves
// past it. Lanes therefore stay within one stripe of each other (unless a
// quiet lane jumps ahead, see below), batches
// of lanes can be spread across worker threads, and batch-shared state
// (the core::CreditSoA credit arena) stays contiguous.
//
// The stripe length is a pure locality knob. `stripe = 1` is cycle-exact
// lockstep: cycle c of every lane runs before cycle c+1 of any lane.
// Larger stripes run each live lane for up to `stripe` consecutive cycles
// before switching lanes -- measured on the cache-model-heavy platform
// lanes, fine-grained interleave buys nothing (the serial tick loop is
// already instruction-cache-hot) and costs 5-10% in data-cache misses,
// so campaign slices use a coarse stripe (kCampaignStripe).
//
// Every lane runs on the per-component clocks of the serial Kernel (see
// sim::Component and sim::Lane): an executed lane-cycle ticks only the
// lane's due components, then the lane jumps to its earliest cached
// horizon, clamped to max_cycles; a component that is not due lags and
// is folded when woken, read or stopped, a component without a horizon
// is ticked every cycle, and predicates are polled after executed cycles
// only. A jump may carry a lane past the current stripe; it then sits
// out the stripes it skipped, so lanes run on their own clocks and the
// batch clock only marks stripe bases. This striped, skipping loop is
// the only campaign path: run_campaign_slice installs no stage. The
// staged (engine) loop below ticks every component in every cycle and
// is kept only for perfbench's traced replica and the engine-vs-classic
// parity test.
//
// Determinism: lanes share no state, so a lane's components observe
// exactly the tick sequence a serial Kernel would deliver -- any stripe,
// any lane count. A lane retires the moment its predicate fires (checked
// once after every cycle it executed, the Kernel::run_until contract) and
// is never ticked again, just like the serial run stopping. Batched
// campaigns are therefore bit-identical to serial ones, which
// tests/test_exp.cpp locks byte-for-byte.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "sim/clock.hpp"
#include "sim/component.hpp"
#include "sim/kernel.hpp"
#include "sim/lane.hpp"

namespace cbus::sim {

/// A batch-shared per-cycle stage: with a stage installed the kernel
/// switches to CYCLE-MAJOR lockstep (stripe 1 semantics) and calls
/// on_cycle(now, live) once per cycle between the lanes' pre- and
/// post-components, handing the stage every live lane at the same cycle
/// -- the shape the vectorized batch credit engine needs to update one
/// counter slot across all lanes as a single vertical operation. `live`
/// lists the still-live lane indices in ascending order.
class BatchStage {
 public:
  BatchStage() = default;
  BatchStage(const BatchStage&) = delete;
  BatchStage& operator=(const BatchStage&) = delete;
  virtual ~BatchStage() = default;

  virtual void on_cycle(Cycle now, std::span<const std::size_t> live) = 0;
};

class BatchKernel {
 public:
  /// Stripe used by campaign slices: long enough that a lane's cache-model
  /// state stays hot across the stripe (measured: cycle-exact interleave
  /// costs 5-10% on platform lanes, >= 64 cycles is within noise of
  /// serial), short enough that lanes still move through the run together
  /// (~10 bus transactions). Retirement is unaffected -- a lane's done()
  /// is polled after every cycle at any stripe.
  static constexpr Cycle kCampaignStripe = 512;

  /// A batch of `lanes` replicas (lanes >= 1) advanced in stripes of up
  /// to `stripe` cycles (>= 1; 1 = cycle-exact lockstep).
  explicit BatchKernel(std::size_t lanes, Cycle stripe = 1);

  /// Register a component into lane `lane`; ticked in registration order
  /// within its lane. Lanes must end up with identical slot counts (they
  /// are replicas of one platform); run_until checks. Non-owning.
  /// With a stage installed these are the PRE-stage components (the
  /// cores -- everything the serial kernel ticks before the bus).
  void add(std::size_t lane, Component& component);

  /// Register a component ticked AFTER the stage each cycle (the
  /// adaptive credit controller -- everything the serial kernel ticks
  /// after the bus). Only meaningful with a stage installed.
  void add_post(std::size_t lane, Component& component);

  /// Install the batch-shared stage and switch run_until to cycle-major
  /// lockstep. The stage must outlive the kernel. See BatchStage.
  void set_stage(BatchStage& stage) noexcept { stage_ = &stage; }

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_.size(); }

  /// Make every component due in every cycle (Lane::hold_current): the
  /// skip-parity tests' reference. Call before the first cycle.
  void hold_components_current();

  /// Components registered in lane `lane`.
  [[nodiscard]] std::size_t lane_component_count(std::size_t lane) const;

  /// Cycles every still-live lane has completed; lanes advance through
  /// the same stripes, so one clock serves the whole batch. (A lane that
  /// fired mid-stripe stopped at its own earlier cycle; a quiet lane may
  /// have jumped past it; a lane that ran out of budget stopped exactly
  /// here. Once every lane has fired the clock freezes at the final
  /// stripe's base.)
  [[nodiscard]] Cycle now() const noexcept { return clock_.now(); }

  /// Advance every live lane until its `done(lane)` fires or `max_cycles`
  /// elapse; returns the per-lane fired flags. Per lane the predicate is
  /// evaluated exactly once after every cycle that lane executed (the
  /// Kernel::run_until contract; skipped quiet cycles are not polled); a
  /// fired lane retires immediately and is neither ticked nor re-polled.
  /// Any callable `bool(std::size_t)` is accepted; a null one throws.
  template <class Done>
  [[nodiscard]] std::vector<bool> run_until(const Done& done,
                                            Cycle max_cycles) {
    expect_predicate(done);
    if (stage_ != nullptr) return run_until_staged(done, max_cycles);
    expect_replicas();

    const Cycle start = clock_.now();
    std::vector<bool> fired(lanes(), false);
    std::vector<std::size_t> live = all_lanes();
    // Per-lane clock: the next cycle the lane executes.
    std::vector<Cycle> lane_now(lanes(), start);
    while (!live.empty() && clock_.now() < max_cycles) {
      const Cycle base = clock_.now();
      const Cycle end = base + std::min(stripe_, max_cycles - base);
      // Each live lane runs the whole stripe before the next lane starts:
      // its data stays cache-hot across the stripe, while lanes still
      // advance through the same cycle window together. erase_if keeps
      // lane order, so the iteration is deterministic (not that lanes
      // could tell -- they share no state).
      std::erase_if(live, [&](std::size_t l) {
        Lane& lane = lanes_[l];
        Cycle& t = lane_now[l];
        while (t < end) {
          lane.execute(t);
          ++executed_;
          // The run_until contract: polled once after every executed
          // cycle.
          if (done(l)) {
            fired[l] = true;
            simulated_ += t + 1 - start;
            lane.sync(t + 1);
            return true;
          }
          t = lane.next(max_cycles);
        }
        return false;
      });
      // The clock tracks stripes every still-live lane completed; once
      // all lanes have fired it stops (advancing would claim cycles no
      // lane executed).
      if (live.empty()) break;
      clock_.advance(end - base);
    }
    for (const std::size_t l : live) {
      simulated_ += lane_now[l] - start;
      lanes_[l].sync(lane_now[l]);
    }
    return fired;
  }
  std::vector<bool> run_until(std::nullptr_t, Cycle) {
    CBUS_EXPECTS_MSG(false, "run_until needs a done predicate");
    return {};
  }

  /// Lane-cycles actually ticked, summed over lanes and run_until calls.
  [[nodiscard]] std::uint64_t executed_cycles() const noexcept {
    return executed_;
  }
  /// Lane-cycles simulated (executed + skipped): per lane, the cycles up
  /// to its retirement or max_cycles.
  [[nodiscard]] std::uint64_t simulated_cycles() const noexcept {
    return simulated_;
  }
  /// Component ticks executed, summed over every lane's components: an
  /// executed lane-cycle ticks only the due ones (the staged loop ticks
  /// them all).
  [[nodiscard]] std::uint64_t component_ticks() const noexcept;

 private:
  template <class Done>
  [[nodiscard]] std::vector<bool> run_until_staged(const Done& done,
                                                   Cycle max_cycles) {
    // Cycle-major lockstep: every live lane executes cycle c (pre
    // components, then the shared stage across all lanes, then post
    // components) before any lane sees c+1. Per lane the observable tick
    // sequence and the done() polling (once after every executed cycle)
    // are exactly the serial kernel's -- lanes share no state, so the
    // cross-lane interleave inside a cycle is free. No cycle is skipped:
    // the stage has no horizon. The clock advances per executed cycle;
    // as in the striped loop it freezes once every lane has fired, and
    // unfinished lanes stop exactly at max_cycles.
    expect_replicas();
    std::vector<bool> fired(lanes(), false);
    std::vector<std::size_t> live = all_lanes();
    while (!live.empty() && clock_.now() < max_cycles) {
      const Cycle now = clock_.now();
      for (const std::size_t l : live) lanes_[l].step(now);
      stage_->on_cycle(now, live);
      for (const std::size_t l : live) post_lanes_[l].step(now);
      executed_ += live.size();
      simulated_ += live.size();
      std::erase_if(live, [&](std::size_t l) {
        if (done(l)) {
          fired[l] = true;
          return true;
        }
        return false;
      });
      if (live.empty()) break;
      clock_.advance();
    }
    return fired;
  }

  /// Lanes are replicas of one platform: equal component counts.
  void expect_replicas() const;
  [[nodiscard]] std::vector<std::size_t> all_lanes() const;

  std::vector<Lane> lanes_;
  std::vector<Lane> post_lanes_;
  BatchStage* stage_ = nullptr;
  Cycle stripe_;
  Clock clock_;
  std::uint64_t executed_ = 0;
  std::uint64_t simulated_ = 0;
};

}  // namespace cbus::sim
