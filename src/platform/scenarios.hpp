// Campaign runners: the measurement protocols of the paper's evaluation.
//
// "for each benchmark we show average execution time results for 1,000
//  runs of each configuration" (§IV-B) -- a campaign re-runs the same
// workload many times, each run with a fresh seed (new random cache
// placements, new arbitration randomness), and folds every run's metric
// record (metrics/probes.hpp) into one Aggregator.
//
// One entry point covers the paper's three protocols:
//
//   CampaignSpec spec;
//   spec.protocol    = CampaignSpec::Protocol::kMaxContention;
//   spec.config      = PlatformConfig::paper_wcet(BusSetup::kCba);
//   spec.tua_factory = [] { return workloads::make_eembc("matrix"); };
//   CampaignResult r = run_campaign(spec);
//   r.exec_time().mean();                       // TuA timing digest
//   r.aggregate.element_stats("fair.jain_occupancy").mean();
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cpu/op_stream.hpp"
#include "metrics/aggregator.hpp"
#include "platform/multicore.hpp"
#include "platform/platform_config.hpp"
#include "stats/summary.hpp"

namespace cbus::platform {

/// A fully-described measurement campaign: protocol, platform, workloads
/// and repetition plan.
///
/// Workloads are stream factories (`tua_factory`, plus
/// `corunner_factories` for kCorun): every run gets its own stream
/// instances, reset with seeds derived from run_seed(base_seed, run), so
/// runs are independent and `batch` replicas can advance together under
/// one sim::BatchKernel, with threading across batches (`threads`).
/// Every call of a factory must build an equivalent stream; then every
/// (batch, threads) combination produces bit-identical per-run records
/// from the same base_seed -- the records a serial loop of
/// Multicore::run() over fresh streams yields.
struct CampaignSpec {
  /// The paper's measurement protocols.
  enum class Protocol : std::uint8_t {
    kIsolation,      ///< TuA alone, operation mode (ISO columns)
    kMaxContention,  ///< Table-I virtual contenders; requires WCET mode
    kCorun,          ///< real co-running workloads on masters 1..k
  };

  /// Builds one fresh workload stream per call.
  using StreamFactory = std::function<std::unique_ptr<cpu::OpStream>()>;

  Protocol protocol = Protocol::kMaxContention;
  PlatformConfig config;

  StreamFactory tua_factory;                      ///< required
  std::vector<StreamFactory> corunner_factories;  ///< kCorun only

  std::uint64_t base_seed = 0xC0FFEE;
  std::uint32_t runs = 100;
  Cycle max_cycles = 50'000'000;

  /// Replicas advanced in lockstep per batch (1 = one machine at a time).
  std::uint32_t batch = 1;
  /// Worker threads across batches (0 = hardware).
  std::uint32_t threads = 1;

  /// Keep every run's raw sample series on the aggregate (O(runs)
  /// memory) -- required by CampaignResult::samples(), per-run CSV rows
  /// and MBPTA fit inputs. The default streams exactly-mergeable digests
  /// at memory independent of the run count.
  bool retain_raw = false;

  /// Observability hook: called once per run with the run's global index
  /// and its fully-built (but not yet started) machine, before the run
  /// executes -- obs::Timeline::attach plugs in here. The hook must not
  /// mutate simulation state (observers only); instrumented runs are
  /// bit-identical to bare ones. Because the hook may register extra
  /// kernel components on some machines, instrumented slices run their
  /// lanes in single-lane batches (lockstep lanes must be exact
  /// replicas) -- same bytes, minus the batching speedup. Null = not
  /// instrumented (the default, and the only mode campaign goldens are
  /// recorded in).
  std::function<void(std::uint32_t run, Multicore& machine)> instrument;
};

/// One run's outcome in slice order; `record` is meaningful only for
/// finished runs (unfinished ones are dropped from the aggregate).
struct RunOutcome {
  bool finished = false;
  metrics::Record record;
};

/// Per-campaign result: every finished run's record folded into one
/// aggregator, with convenience views for the ubiquitous quantities.
struct CampaignResult {
  metrics::Aggregator aggregate;
  std::uint32_t unfinished_runs = 0;

  /// TuA execution-time digest (the `tua.cycles` key; empty stats when no
  /// run finished).
  [[nodiscard]] stats::OnlineStats exec_time() const;

  /// Raw per-run TuA times in run order (the MBPTA input). Empty unless
  /// the campaign ran with CampaignSpec::retain_raw.
  [[nodiscard]] const std::vector<double>& samples() const;

  /// Bus busy-fraction digest (the `bus.utilization` key).
  [[nodiscard]] stats::OnlineStats bus_utilization() const;

  /// Total CBA underflow clamps across finished runs.
  [[nodiscard]] std::uint64_t credit_underflows() const;

  /// Per-key summary statistics (metrics::Aggregator::summarize).
  [[nodiscard]] metrics::Record summary(
      std::span<const double> percentiles = {}) const {
    return aggregate.summarize(percentiles);
  }
};

/// Run the campaign `spec` describes. Preconditions (std::invalid_argument
/// otherwise): spec.tua_factory is set, runs >= 1, corunner_factories
/// only with kCorun, WCET mode with kMaxContention (kIsolation forces
/// operation mode itself).
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec);

/// Lane-cycles a slice's kernel ticked vs simulated (ticked + skipped as
/// quiet): how much the quiescence skip saved. Runner telemetry only --
/// never part of a run's outcome.
struct KernelCycles {
  std::uint64_t executed = 0;
  std::uint64_t simulated = 0;
  /// Segment-bus cycles ticked by the lanes' segmented interconnects
  /// (0 on the single bus): what the per-segment clocks executed.
  std::uint64_t segment_cycles_executed = 0;
  /// Component ticks the lanes executed: an executed lane-cycle ticks
  /// only the components due in it (the per-component clocks).
  std::uint64_t component_ticks_executed = 0;
};

/// Run the contiguous slice of runs [first_run, first_run +
/// outcomes.size()) as ONE lockstep batch, writing each run's outcome in
/// order. This is run_campaign's unit of work,
/// exposed so exp::run_experiment can schedule slices from many sweep
/// jobs onto one thread pool; folding outcomes in run order yields the
/// serial aggregate bit-identically.
KernelCycles run_campaign_slice(const CampaignSpec& spec,
                                std::uint32_t first_run,
                                std::span<RunOutcome> outcomes);

/// Per-run seed derivation (public so tests can reproduce single runs).
[[nodiscard]] std::uint64_t run_seed(std::uint64_t base_seed,
                                     std::uint32_t run_index);

/// Slowdown of `x` relative to a baseline campaign mean.
[[nodiscard]] double slowdown(const CampaignResult& x,
                              const CampaignResult& baseline);

}  // namespace cbus::platform
