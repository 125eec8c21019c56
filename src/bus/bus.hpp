// The non-split shared bus (AMBA AHB style, paper §III-C).
//
// Protocol model, pinned here and relied on by every experiment:
//  * Each master has at most one pending request on the bus at a time.
//  * A request raised during cycle t is visible to the arbiter at cycle t.
//  * Arbitration takes one cycle: a grant decided at cycle t starts its
//    transfer at t+1.
//  * Re-arbitration is overlapped with the last cycle of the current
//    transfer, so under back-to-back load the bus never idles between
//    transactions (matches the paper's fully-saturated-bus arithmetic:
//    a short request behind three 28-cycle streams waits exactly 84 cycles).
//  * The hold time of a transfer is decided when it starts: by the slave
//    (L2 hit 5 / miss 28 / dirty miss 56 / atomic 56) or by the request's
//    forced_hold (WCET-mode contenders, trace replay).
//  * An EligibilityFilter (CBA) restricts which pending requests may be
//    arbitrated; the default filter admits everything.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "bus/arbiter.hpp"
#include "bus/interfaces.hpp"
#include "bus/request.hpp"
#include "common/contracts.hpp"
#include "common/types.hpp"
#include "sim/component.hpp"

namespace cbus::bus {

struct BusConfig {
  std::uint32_t n_masters = 4;
  /// Overlap re-arbitration with the final transfer cycle (default true).
  /// Disabling inserts a 1-cycle gap between every pair of transfers.
  bool overlapped_arbitration = true;
};

/// Per-master and global occupancy accounting.
struct BusStatistics {
  struct PerMaster {
    std::uint64_t requests = 0;      ///< requests raised
    std::uint64_t grants = 0;        ///< transfers started
    std::uint64_t completions = 0;   ///< transfers finished
    Cycle wait_cycles = 0;           ///< sum of (grant - issue) over grants
    Cycle hold_cycles = 0;           ///< bus cycles occupied
    Cycle max_wait = 0;              ///< worst single-request wait
  };
  std::vector<PerMaster> master;
  Cycle busy_cycles = 0;   ///< cycles some transfer was in flight
  Cycle idle_cycles = 0;   ///< cycles the bus was idle (incl. arbitration)
  Cycle total_cycles = 0;  ///< cycles ticked

  /// Sums of the per-master counters, computed in one pass. Callers that
  /// derive several shares (the metrics probes) take totals() once
  /// instead of re-summing per master.
  struct Totals {
    std::uint64_t requests = 0;
    std::uint64_t grants = 0;
    std::uint64_t completions = 0;
    Cycle wait_cycles = 0;
    Cycle hold_cycles = 0;
  };

  [[nodiscard]] Totals totals() const {
    Totals t;
    for (const auto& pm : master) {
      t.requests += pm.requests;
      t.grants += pm.grants;
      t.completions += pm.completions;
      t.wait_cycles += pm.wait_cycles;
      t.hold_cycles += pm.hold_cycles;
    }
    return t;
  }

  /// Fraction of all ticked cycles master m held the bus.
  [[nodiscard]] double occupancy_share(MasterId m) const {
    CBUS_EXPECTS(m < master.size());
    return total_cycles == 0
               ? 0.0
               : static_cast<double>(master[m].hold_cycles) /
                     static_cast<double>(total_cycles);
  }

  /// Fraction of all grants that went to master m, against a precomputed
  /// totals() -- O(1), for callers deriving every master's share.
  [[nodiscard]] double grant_share(MasterId m, const Totals& t) const {
    CBUS_EXPECTS(m < master.size());
    return t.grants == 0 ? 0.0
                         : static_cast<double>(master[m].grants) /
                               static_cast<double>(t.grants);
  }

  /// Fraction of all grants that went to master m (convenience form;
  /// re-sums the grant total on every call).
  [[nodiscard]] double grant_share(MasterId m) const {
    return grant_share(m, totals());
  }
};

class NonSplitBus final : public Interconnect {
 public:
  NonSplitBus(const BusConfig& config, Arbiter& arbiter, BusSlave& slave);

  /// Install the CBA filter (nullptr restores pass-through arbitration).
  void set_filter(EligibilityFilter* filter) noexcept { filter_ = filter; }
  void set_filter(std::uint32_t segment, EligibilityFilter* filter) override {
    CBUS_EXPECTS(segment == 0);
    filter_ = filter;
  }

  /// Install a passive activity observer (nullptr detaches).
  void set_observer(BusObserver* observer) noexcept override {
    observer_ = observer;
  }

  /// Register the completion-callback target for a master id.
  void connect_master(MasterId master, BusMaster& callbacks) override;

  /// Raise a request. Precondition: `request.master` has no pending request
  /// and is not currently holding the bus.
  void request(const BusRequest& request, Cycle now) override;

  /// True if the master has a raised-but-not-started request.
  [[nodiscard]] bool has_pending(MasterId master) const override {
    CBUS_EXPECTS(master < config_.n_masters);
    return ((pending_bits_ >> master) & 1u) != 0;
  }

  /// True if the master's transfer is in flight.
  [[nodiscard]] bool is_holding(MasterId master) const noexcept {
    return transfer_.has_value() && transfer_->request.master == master;
  }

  /// True if `master` could legally raise a request now (no pending request
  /// and no transfer in flight for it).
  [[nodiscard]] bool can_request(MasterId master) const override {
    return !has_pending(master) && !is_holding(master);
  }

  [[nodiscard]] bool busy() const noexcept { return transfer_.has_value(); }

  /// Bitmask of masters with pending requests (maintained incrementally
  /// by request/arbitrate, so the per-cycle "anything to arbitrate?"
  /// check is one load).
  [[nodiscard]] std::uint32_t pending_mask() const noexcept {
    return pending_bits_;
  }

  /// Master currently holding the bus (kNoMaster when idle).
  [[nodiscard]] MasterId holder() const noexcept {
    return transfer_ ? transfer_->request.master : kNoMaster;
  }

  void tick(Cycle now) override;

  /// Quiet until the transfer in flight completes, a latched grant
  /// starts, or -- idle with requests pending -- one of them is eligible
  /// to arbitrate; the filter adds its own horizon (see
  /// EligibilityFilter::next_activity).
  [[nodiscard]] Cycle next_activity(Cycle now) const override;

  /// Busy/idle/total counters and the transfer countdown fold linearly;
  /// the filter folds its per-cycle bookkeeping.
  void skip(Cycle k) override;

  // --- phased tick (batched campaigns) ----------------------------------
  // The batch credit engine runs the credit bookkeeping VERTICALLY across
  // lanes, so the bus tick splits around it: tick_begin starts a latched
  // grant (this cycle's holder becomes known), the engine charges that
  // holder in the SoA arena, tick_finish advances/completes/arbitrates.
  // tick(now) == tick_begin(now); filter->on_cycle(holder(), now);
  // tick_finish(now) -- the serial and phased forms are the same code.

  /// Phase 1 of tick(): a grant latched last cycle starts its transfer.
  /// Inline: it runs once per lane-cycle in the batched hot loop and is
  /// almost always the two-load no-op.
  void tick_begin(Cycle now) {
    if (!transfer_.has_value() && latched_grant_.has_value()) {
      begin_latched(now);
    }
  }

  /// Phase 3 of tick(): advance the transfer in flight, complete and
  /// re-arbitrate, or idle-arbitrate. Reads post-credit-tick eligibility.
  /// Inline for the same reason as tick_begin: one call per lane-cycle,
  /// and the common case (transfer in flight, not finishing) touches a
  /// handful of counters.
  void tick_finish(Cycle now) {
    ++stats_.total_cycles;
    if (transfer_.has_value()) {
      ++stats_.busy_cycles;
      CBUS_ASSERT(transfer_->remaining >= 1);
      --transfer_->remaining;
      if (transfer_->remaining == 0) complete_transfer(now);
    } else {
      ++stats_.idle_cycles;
      if (!latched_grant_.has_value() && pending_bits_ != 0) {
        arbitrate(now, now + 1);
      }
    }
  }

  [[nodiscard]] const BusStatistics& statistics() const noexcept override {
    return stats_;
  }
  void reset_statistics();

  [[nodiscard]] std::uint32_t n_masters() const noexcept {
    return config_.n_masters;
  }
  [[nodiscard]] std::uint32_t n_local_masters(
      std::uint32_t /*segment*/) const override {
    return config_.n_masters;
  }
  [[nodiscard]] const Arbiter& arbiter() const noexcept { return arbiter_; }

 private:
  struct Transfer {
    BusRequest request;
    Cycle remaining = 0;
    Cycle hold = 0;
  };

  /// Run arbitration for a transfer starting at `start`; latches the winner.
  void arbitrate(Cycle now, Cycle start);

  /// Begin the latched transfer at cycle `now`.
  void begin_latched(Cycle now);

  /// Completion path of tick_finish (cold relative to the advance path).
  void complete_transfer(Cycle now);

  BusConfig config_;
  Arbiter& arbiter_;
  BusSlave& slave_;
  EligibilityFilter* filter_ = nullptr;
  BusObserver* observer_ = nullptr;

  std::vector<BusMaster*> masters_;
  std::vector<std::optional<BusRequest>> pending_;
  std::uint32_t pending_bits_ = 0;  ///< bit per master, mirrors pending_
  std::vector<Cycle> arrival_;  ///< issue cycle per master (valid if pending)

  std::optional<Transfer> transfer_;
  std::optional<BusRequest> latched_grant_;  ///< starts next cycle

  BusStatistics stats_;
};

}  // namespace cbus::bus
