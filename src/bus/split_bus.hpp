// Split-transaction bus variant.
//
// The paper notes (§III-C) that "buses with split transactions have more
// homogeneous request sizes" -- the bus is released during the slave's
// service time -- but the worst-case short-vs-long mix survives because
// "atomic operations by definition cannot be split". This model lets the
// repository quantify that argument.
//
// Protocol:
//  * Address phase: 1 cycle, arbitrated like the non-split bus (the CBA
//    eligibility filter applies here too).
//  * The slave services the request OFF the bus for `latency` cycles
//    (other address/data phases may proceed meanwhile; one outstanding
//    transaction per master).
//  * Data phase: `data_beats` bus cycles returning the line, granted in
//    ready order (responses have priority over new address phases).
//  * Atomics hold the bus for their full duration, non-split.
//
// Credits: a master is charged `scale` units for every cycle one of ITS
// phases occupies the bus (address, data, or atomic hold) -- occupancy-
// cycle fairness, exactly as on the non-split bus.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "bus/arbiter.hpp"
#include "bus/bus.hpp"
#include "bus/interfaces.hpp"
#include "bus/request.hpp"
#include "common/contracts.hpp"
#include "common/types.hpp"
#include "sim/component.hpp"

namespace cbus::bus {

/// How a slave services one split transaction.
struct SplitResponse {
  /// Off-bus service time between the end of the address phase and the
  /// data being ready (0 == ready the next cycle).
  Cycle latency = 0;
  /// Bus cycles of the data phase (>= 1 unless atomic_hold).
  Cycle data_beats = 4;
  /// Atomic: the bus stays held for `latency` cycles; no split, no data
  /// phase (the read+write pair completes within the hold).
  bool atomic_hold = false;
};

/// Slave-side interface for the split bus.
class SplitSlave {
 public:
  virtual ~SplitSlave() = default;
  virtual SplitResponse begin_split_transaction(const BusRequest& request,
                                                Cycle now) = 0;
};

class SplitBus final : public Interconnect {
 public:
  SplitBus(const BusConfig& config, Arbiter& arbiter, SplitSlave& slave);

  void set_filter(EligibilityFilter* filter) noexcept { filter_ = filter; }
  void set_filter(std::uint32_t segment, EligibilityFilter* filter) override {
    CBUS_EXPECTS(segment == 0);
    filter_ = filter;
  }
  /// The split protocol has no observer hooks: a documented no-op.
  void set_observer(BusObserver* /*observer*/) noexcept override {}
  void connect_master(MasterId master, BusMaster& callbacks) override;

  /// Raise a request. One outstanding transaction per master.
  void request(const BusRequest& request, Cycle now) override;

  [[nodiscard]] bool has_pending(MasterId master) const override;
  [[nodiscard]] bool is_outstanding(MasterId master) const;
  [[nodiscard]] bool can_request(MasterId master) const override {
    return !has_pending(master) && !is_outstanding(master);
  }
  [[nodiscard]] MasterId holder() const noexcept {
    return phase_ ? phase_->master : kNoMaster;
  }

  void tick(Cycle now) override;

  [[nodiscard]] const BusStatistics& statistics() const noexcept override {
    return stats_;
  }
  [[nodiscard]] std::uint32_t n_masters() const noexcept {
    return config_.n_masters;
  }
  [[nodiscard]] std::uint32_t n_local_masters(
      std::uint32_t /*segment*/) const override {
    return config_.n_masters;
  }

 private:
  enum class PhaseKind : std::uint8_t { kAddress, kData, kAtomic };

  struct Phase {
    PhaseKind kind = PhaseKind::kAddress;
    MasterId master = kNoMaster;
    Cycle remaining = 0;
    Cycle occupancy = 0;  ///< total length of this phase (for accounting)
    BusRequest request;
  };

  struct Outstanding {
    BusRequest request;
    Cycle ready_at = 0;
    Cycle data_beats = 1;
  };

  [[nodiscard]] std::uint32_t pending_mask() const noexcept;
  void start_next_phase(Cycle now);
  void finish_phase(Cycle now);

  BusConfig config_;
  Arbiter& arbiter_;
  SplitSlave& slave_;
  EligibilityFilter* filter_ = nullptr;

  std::vector<MasterLink> masters_;
  std::vector<std::optional<BusRequest>> pending_;
  std::vector<Cycle> arrival_;
  std::vector<bool> outstanding_;

  std::optional<Phase> phase_;          ///< phase occupying the bus
  std::optional<Phase> latched_phase_;  ///< starts next cycle
  std::vector<Outstanding> in_service_; ///< waiting for the slave
  std::deque<Outstanding> ready_;       ///< data phases awaiting the bus

  BusStatistics stats_;
};

}  // namespace cbus::bus
