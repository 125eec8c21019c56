// Multicore: one fully-wired instance of the modelled SoC.
//
// Construction builds everything for ONE run: a fresh RandBank seeded with
// the run seed feeds the arbiter, every cache's placement/replacement and
// nothing else -- so a run is exactly reproducible and distinct subsystems
// consume independent randomness.
//
// Wiring and tick order (determinism contract):
//   TuA core (master 0) -> other real cores -> WCET-mode virtual
//   contenders -> the interconnect.
// Every master reaches the interconnect -- the non-split bus, the split
// bus or the segmented interconnect, one bus::Interconnect either way --
// through the same port, and CBA sits in front of it as one credit
// filter per segment (the single bus is segment 0).
// Cores raise requests during their tick; the bus arbitrates the same
// cycle and starts transfers the next cycle (1-cycle arbitration).
//
// A Multicore is cheap to build; campaigns construct one per run instead
// of resetting state (no half-reset bugs by construction).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "bus/arbiter.hpp"
#include "bus/bus.hpp"
#include "bus/segmented.hpp"
#include "core/batch_engine.hpp"
#include "core/credit_filter.hpp"
#include "core/virtual_contender.hpp"
#include "ctrl/controller.hpp"
#include "cpu/in_order_core.hpp"
#include "cpu/op_stream.hpp"
#include "mem/partitioned_l2.hpp"
#include "metrics/record.hpp"
#include "platform/platform_config.hpp"
#include "rng/rand_bank.hpp"
#include "sim/batch_kernel.hpp"
#include "sim/kernel.hpp"

namespace cbus::platform {

/// Everything a campaign wants to know about one finished run.
///
/// `record` is the probe-extracted metric record (see
/// metrics/probes.hpp for the key catalog) -- the form campaigns
/// aggregate and experiment sinks render. The raw statistics structs
/// stay alongside for tests and tools that inspect a single run.
struct RunResult {
  bool tua_finished = false;
  Cycle tua_cycles = 0;  ///< execution time of the task under analysis
  cpu::CoreStats tua_stats;
  bus::BusStatistics bus_stats;
  std::uint64_t credit_underflows = 0;
  std::vector<Cycle> core_finish;  ///< per real core; 0 if unfinished
  metrics::Record record;          ///< standard per-run metrics
};

/// Where one master's CBA credit lives: its home segment's credit state
/// and its slot there (`state` is null without CBA).
struct CreditSlot {
  core::CreditState* state = nullptr;
  MasterId slot = 0;
};

class Multicore {
 public:
  /// `tua` runs on master 0. `contenders` (possibly empty) run on masters
  /// 1..k as real cores. In WCET-estimation mode, masters without a real
  /// workload become Table-I virtual contenders; in operation mode they
  /// stay idle (isolation).
  ///
  /// Streams are NOT reset here -- campaigns reset them with per-run seeds
  /// before constructing the Multicore.
  ///
  /// `credit_lane` (optional, CBA setups only) places the credit counters
  /// in external storage -- a core::CreditSoA lane -- instead of an own
  /// allocation, so a batch of replicas keeps its credit state contiguous.
  /// Must outlive the machine; behaviour is storage-independent.
  ///
  /// `engine` (optional; requires a non-empty `credit_lane`, CBA, the
  /// non-split protocol and the single-bus topology) hands this machine's
  /// Table-I work to a batch credit engine as lane `engine_lane`: no
  /// per-lane VirtualContender components are built (the engine's
  /// contender bank replaces them) and the bus is ticked by the engine,
  /// not the kernel. Such a machine runs ONLY via attach() on a staged
  /// BatchKernel -- run()/run_all() assert. Campaigns never pass an
  /// engine (they always take the quiescence-skipping path); the
  /// argument is kept for perfbench's traced replica and the
  /// engine-vs-classic parity test.
  Multicore(const PlatformConfig& config, std::uint64_t seed,
            cpu::OpStream& tua,
            const std::vector<cpu::OpStream*>& contenders = {},
            core::CreditLaneView credit_lane = {},
            core::BatchCreditEngine* engine = nullptr,
            std::size_t engine_lane = 0);

  Multicore(const Multicore&) = delete;
  Multicore& operator=(const Multicore&) = delete;

  /// Run until the TuA finishes (or `max_cycles`); returns the result.
  RunResult run(Cycle max_cycles = 50'000'000);

  /// Run until every real core finishes (or `max_cycles`).
  RunResult run_all(Cycle max_cycles = 50'000'000);

  // --- batched execution (sim::BatchKernel) ------------------------------
  /// Register every component as lane `lane` of `batch`, in the exact
  /// tick order run() uses. The machine is then advanced externally.
  void attach(sim::BatchKernel& batch, std::size_t lane);

  /// run()'s stop predicate: the TuA (master 0) has finished.
  [[nodiscard]] bool tua_done() const noexcept {
    return cores_.front()->done();
  }

  /// Assemble the RunResult after external (batched) stepping. `fired` is
  /// the lane's run_until flag; `executed_cycles` the batch clock, used as
  /// the TuA time of unfinished runs (exactly run()'s kernel.now()).
  [[nodiscard]] RunResult harvest(bool fired, Cycle executed_cycles) const {
    return collect(fired, executed_cycles);
  }

  // --- introspection (tests, benches) -----------------------------------
  /// The interconnect every master is wired to.
  [[nodiscard]] bus::Interconnect& bus_port() noexcept { return *bus_; }
  /// The segmented interconnect (null unless the topology is segmented).
  [[nodiscard]] bus::SegmentedInterconnect* segmented() const noexcept {
    return dynamic_cast<bus::SegmentedInterconnect*>(bus_.get());
  }
  /// Segment `s`'s credit filter (null without CBA or past the last
  /// segment; the single bus is segment 0).
  [[nodiscard]] core::CreditFilter* segment_filter(std::uint32_t s) {
    return s < filters_.size() ? filters_[s].get() : nullptr;
  }
  /// Master `m`'s credit: its home segment's credit state and its local
  /// slot there ({nullptr, 0} without CBA). Read it after
  /// bus_port().settle() -- a lazily clocked segment folds there.
  [[nodiscard]] CreditSlot credit_of(MasterId m) const;
  [[nodiscard]] mem::PartitionedL2& l2() noexcept { return *l2_; }
  [[nodiscard]] cpu::InOrderCore& core(std::size_t i) { return *cores_.at(i); }
  [[nodiscard]] std::size_t real_cores() const noexcept {
    return cores_.size();
  }
  /// The credit controller over the Table-I increments (null without a
  /// CBA config or on the segmented topology). Static for
  /// `controller = static` -- present but never ticked.
  [[nodiscard]] ctrl::CreditController* controller() noexcept {
    return controller_.get();
  }
  /// Install a passive BusObserver on the interconnect (the split
  /// protocol has no observer hooks, so this is a documented no-op
  /// there). Observers must not mutate state; the tracer relies on an
  /// instrumented run being bit-identical to a bare one.
  void set_bus_observer(bus::BusObserver* observer) noexcept {
    bus_->set_observer(observer);
  }
  [[nodiscard]] sim::Kernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] const PlatformConfig& config() const noexcept {
    return config_;
  }

 private:
  [[nodiscard]] RunResult collect(bool finished, Cycle executed) const;

  PlatformConfig config_;
  rng::RandBank bank_;
  sim::Kernel kernel_;

  std::unique_ptr<bus::Arbiter> arbiter_;
  std::unique_ptr<mem::PartitionedL2> l2_;
  std::unique_ptr<bus::Interconnect> bus_;
  /// One CBA filter per segment (empty without CBA).
  std::vector<std::unique_ptr<core::CreditFilter>> filters_;
  std::unique_ptr<ctrl::CreditController> controller_;
  std::vector<std::unique_ptr<cpu::InOrderCore>> cores_;
  std::vector<std::unique_ptr<core::VirtualContender>> virtual_contenders_;
  /// Non-null when this machine is a lane of a batch credit engine.
  core::BatchCreditEngine* engine_ = nullptr;
};

}  // namespace cbus::platform
