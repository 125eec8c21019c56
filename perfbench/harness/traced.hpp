// The traced run: one campaign rebuilt from the simulator's public
// constructors and calls (exp::expand's Jobs, workload factories, the
// Multicore constructor, BatchKernel::run_until, Multicore::harvest,
// metrics::Aggregator, mbpta::analyze, exp::emit_outputs), with a span
// around each call into a layer. It mirrors exp::run_experiment and
// platform::run_campaign_slice step for step, so its outputs must be
// byte-identical to the untraced run's -- the harness checks that.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// The layer boundaries spans are recorded at.
enum class Layer : std::uint8_t {
  kRep,          ///< one whole traced campaign (root)
  kLoad,         ///< exp: load_experiment + validate_spec + expand
  kSlice,        ///< platform: one lockstep slice (run_campaign_slice)
  kStreamBuild,  ///< workloads: stream factory + OpStream::reset, per lane
  kBuild,        ///< platform: Multicore constructor, per lane
  kRun,          ///< sim: BatchKernel::run_until (engine stage inside)
  kEngine,       ///< core/vec: BatchCreditEngine::on_cycle, summed
  kHarvest,      ///< platform: Multicore::harvest, per lane
  kFold,         ///< metrics: Aggregator::add / merge
  kFit,          ///< mbpta: analyze + tail_convergence
  kSink,         ///< exp: emit_outputs
  kCheckpoint,   ///< exp: CheckpointWriter create + append
};
inline constexpr std::size_t kLayerCount = 12;
[[nodiscard]] const char* layer_name(Layer layer);

/// Deterministic counts read from the machines after harvest and from
/// the per-run records (simulated, so they repeat exactly).
struct Counts {
  double sim_cycles = 0;
  double cpu_ops = 0, cpu_cycles = 0, cpu_bus_stall = 0;
  double l1_hits = 0, l1_misses = 0;
  double l2_transactions = 0, l2_misses = 0, dram_accesses = 0;
  double bus_grants = 0, bus_wait = 0, bus_busy = 0, bus_total = 0;
  double credit_underflows = 0;
  double seg_bridge_hops = 0, seg_backpressure_stalls = 0;
  double ctrl_epochs = 0, ctrl_updates = 0;
  double engine_cycles = 0, engine_live_lanes = 0, engine_width = 0;
  void add(const Counts& other);
};

/// One traced repetition's results.
struct TracedRep {
  double wall_s = 0;
  std::uint64_t outputs_digest = 0;
  std::uint64_t records_digest = 0;
  RunTally runs;
  double record_cycles = 0;   ///< simulated_cycles() over the records
  Counts counts;
  std::array<double, kLayerCount> layer_ms{};  ///< self time for kRun
  std::vector<double> slice_ms;
  double checkpoint_bytes = 0;
};

/// Spans kept in memory for the whole process and written at exit.
class Tracer {
 public:
  explicit Tracer(const Options& options) : options_(options) {}
  /// Run one traced repetition (`rep` tags its spans).
  TracedRep run_rep(std::uint32_t rep);
  /// Every span as JSON: name, start/end (ns since the tracer started),
  /// parent span index, run id (global run index, -1 above run level),
  /// worker and repetition.
  void write_spans(std::ostream& out) const;

  struct Span {
    Layer layer;
    std::uint32_t worker;
    std::uint32_t rep;
    std::int64_t parent;  ///< index into spans_, -1 for roots
    std::int64_t run;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

 private:
  const Options& options_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench
