// Interfaces between the bus and its neighbours: masters (cores, DMA,
// virtual contenders), the slave side (L2 + memory), the pluggable
// eligibility filter that CBA implements, and the interconnect the
// platform owns.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bus/request.hpp"
#include "common/types.hpp"
#include "sim/component.hpp"
#include "sim/lane.hpp"

namespace cbus::bus {

struct BusStatistics;

/// Callbacks the bus invokes on the owner of a request.
class BusMaster {
 public:
  virtual ~BusMaster() = default;

  /// The request was granted; its transfer occupies [now, now + hold).
  virtual void on_grant(const BusRequest& request, Cycle now, Cycle hold) = 0;

  /// Arbitration latched the request at cycle `now`; the transfer starts
  /// next cycle. Between the latch and on_grant the master is neither
  /// pending nor holding, so it may legally raise a fresh request.
  /// Default no-op: only masters mirroring the bus's pending state (the
  /// batch credit engine's contender banks) care.
  virtual void on_latch(const BusRequest& /*request*/, Cycle /*now*/) {}

  /// The transfer finished at the end of cycle `now`; the master may use the
  /// result (e.g. load data) from cycle now + 1.
  virtual void on_complete(const BusRequest& request, Cycle now) = 0;
};

/// The slave side of the bus (in the modelled SoC: partitioned L2 backed by
/// the memory controller). Determines how long a transaction holds the bus.
class BusSlave {
 public:
  virtual ~BusSlave() = default;

  /// Transaction starts now; returns the total bus hold time in cycles
  /// (>= 1). State changes (cache fills, dirty evictions) happen here.
  virtual Cycle begin_transaction(const BusRequest& request, Cycle now) = 0;

  /// Transaction completed (bus released at end of cycle `now`).
  virtual void complete_transaction(const BusRequest& /*request*/,
                                    Cycle /*now*/) {}
};

/// The master-side port shared by every bus protocol (non-split and
/// split-transaction): raise requests, query request legality and pending
/// state, register completion callbacks. Cores, virtual contenders and
/// synthetic masters talk to this interface so the platform can swap the
/// bus protocol underneath them.
class BusPort {
 public:
  virtual ~BusPort() = default;

  /// Register the completion-callback target for a master id.
  virtual void connect_master(MasterId master, BusMaster& callbacks) = 0;

  /// Raise a request (preconditions per protocol; see can_request).
  virtual void request(const BusRequest& request, Cycle now) = 0;

  /// True if `master` may legally raise a request now.
  [[nodiscard]] virtual bool can_request(MasterId master) const = 0;

  /// True if the master has a raised-but-not-yet-granted request.
  [[nodiscard]] virtual bool has_pending(MasterId master) const = 0;

  /// Bring the port up to its lane's current cycle before state it does
  /// not expose itself -- its statistics, the credit filters gating it
  /// -- is read: fold the interconnect's own clock (sim::settle), then
  /// any parts behind it that run on clocks of their own
  /// (SegmentedInterconnect's segments). Cheap when nothing lags
  /// (virtual contenders ask on every COMP-latch check).
  void settle() const {
    sim::settle(clocked_);
    if (lazy_parts_) settle_parts();
  }

  /// Wake `watcher` (sim::wake) whenever `master`'s pending state
  /// changes -- a request raised, a request latched by arbitration:
  /// `watcher`'s horizon reads has_pending(master) (a COMP-latch
  /// contender watching the TuA). `watcher` must outlive the port's use.
  void watch_pending(MasterId master, sim::Component& watcher) {
    watchers_.emplace_back(master, &watcher);
  }

 protected:
  /// Wake the components watching `master`'s pending state.
  void wake_watchers(MasterId master, Cycle now) const {
    for (const auto& [watched, watcher] : watchers_) {
      if (watched == master) sim::wake(watcher, now);
    }
  }

  /// The first step of every request(): fold the port's own clock up to
  /// `now` (it is about to be written), then wake `master`'s watchers.
  void wake_for_request(MasterId master, Cycle now) const {
    sim::wake(clocked_, now);
    wake_watchers(master, now);
  }

  /// The kernel component behind the port (the Interconnect itself).
  sim::Component* clocked_ = nullptr;
  /// Set by a port whose parts run on their own clocks.
  bool lazy_parts_ = false;

 private:
  /// settle() for ports with lazy parts.
  virtual void settle_parts() const {}

  std::vector<std::pair<MasterId, sim::Component*>> watchers_;
};

/// A connected master as the bus calls it: every callback first wakes
/// the master's kernel clock (the callback writes into it). The target
/// may be a kernel component (a core, a virtual contender) or a plain
/// callback target (a segment's port relay), which needs no wake.
class MasterLink {
 public:
  MasterLink() = default;
  explicit MasterLink(BusMaster& callbacks)
      : callbacks_(&callbacks),
        clocked_(dynamic_cast<sim::Component*>(&callbacks)) {}

  [[nodiscard]] bool connected() const noexcept {
    return callbacks_ != nullptr;
  }
  void on_latch(const BusRequest& request, Cycle now) const {
    sim::wake(clocked_, now);
    callbacks_->on_latch(request, now);
  }
  void on_grant(const BusRequest& request, Cycle now, Cycle hold) const {
    sim::wake(clocked_, now);
    callbacks_->on_grant(request, now, hold);
  }
  void on_complete(const BusRequest& request, Cycle now) const {
    sim::wake(clocked_, now);
    callbacks_->on_complete(request, now);
  }

 private:
  BusMaster* callbacks_ = nullptr;
  sim::Component* clocked_ = nullptr;
};

/// Passive observer of bus activity: request arrival, transfer start and
/// completion. Used by the transaction tracer and by custom instrumentation;
/// observers must not mutate bus state.
class BusObserver {
 public:
  virtual ~BusObserver() = default;
  virtual void on_request(const BusRequest& /*request*/, Cycle /*now*/) {}
  virtual void on_transfer_start(const BusRequest& /*request*/,
                                 Cycle /*start*/, Cycle /*hold*/) {}
  virtual void on_transfer_complete(const BusRequest& /*request*/,
                                    Cycle /*end*/) {}
};

/// Eligibility filter applied before arbitration (paper §III-A: "CBA acts as
/// a filter to determine the pending requests that are eligible to be
/// arbitrated"). The default filter passes everything through.
class EligibilityFilter {
 public:
  virtual ~EligibilityFilter() = default;

  /// Restrict `pending` (bit i == master i has a pending request) to the
  /// masters allowed to compete this cycle.
  [[nodiscard]] virtual std::uint32_t eligible(std::uint32_t pending,
                                               Cycle now) = 0;

  /// Called once per cycle with the master currently holding the bus
  /// (kNoMaster if the bus is idle or arbitrating). Credit bookkeeping
  /// lives here.
  virtual void on_cycle(MasterId holder, Cycle now) = 0;

  /// Called when a master wins arbitration.
  virtual void on_grant(MasterId master, Cycle now) = 0;

  /// Burst charge for occupancy this filter's bus never saw: the
  /// segmented interconnect reports the cycles a LOCAL master's
  /// transaction occupied FOREIGN segments, so its home budget pays for
  /// the whole path. Default no-op (the single bus has no foreign
  /// occupancy).
  virtual void on_remote_occupancy(MasterId /*master*/,
                                   Cycle /*occupancy*/) {}

  /// Quiescence horizon (see sim::Component::next_activity) for a bus
  /// whose own state holds still after cycle `now`, with `holder` on it
  /// (kNoMaster: idle) and `pending` waiting to arbitrate (0 while a
  /// transfer is in flight): the next cycle at which a master in
  /// `pending` is eligible after that cycle's on_cycle, or at which
  /// on_cycle(holder) stops being a closed form. sim::kNever when
  /// neither happens. The default keeps the bus ticking every cycle.
  [[nodiscard]] virtual Cycle next_activity(std::uint32_t /*pending*/,
                                            MasterId /*holder*/,
                                            Cycle now) const {
    return now + 1;
  }

  /// Fold `k` cycles of on_cycle(holder), as next_activity allowed.
  virtual void skip(MasterId /*holder*/, Cycle /*k*/) {}

  virtual void reset() = 0;
};

/// The interconnect a platform wires every master to (paper §III-A: CBA
/// filters the requests in front of whatever bus and arbiter the SoC
/// has): a kernel component behind the master-side port, with global
/// statistics, a passive observer hook and one eligibility filter per
/// segment. A single bus is one segment whose local slot of master m is
/// m; the segmented interconnect homes each master on one of several
/// segment buses.
class Interconnect : public sim::Component, public BusPort {
 public:
  explicit Interconnect(std::string name) : sim::Component(std::move(name)) {
    clocked_ = this;
  }

  /// Global per-master accounting in BusStatistics shape.
  [[nodiscard]] virtual const BusStatistics& statistics() const = 0;

  /// Install a passive BusObserver (nullptr detaches).
  virtual void set_observer(BusObserver* observer) = 0;

  /// Install segment `segment`'s eligibility filter (nullptr detaches).
  /// The filter's master ids are the segment's local slots.
  virtual void set_filter(std::uint32_t segment,
                          EligibilityFilter* filter) = 0;

  [[nodiscard]] virtual std::uint32_t n_segments() const { return 1; }
  /// Local masters of segment `segment`: the width of its filter.
  [[nodiscard]] virtual std::uint32_t n_local_masters(
      std::uint32_t segment) const = 0;
  /// Segment whose filter holds `master`'s credit.
  [[nodiscard]] virtual std::uint32_t home_segment(MasterId /*master*/) const {
    return 0;
  }
  /// `master`'s slot on its home segment.
  [[nodiscard]] virtual std::uint32_t local_slot(MasterId master) const {
    return master;
  }
};

}  // namespace cbus::bus
