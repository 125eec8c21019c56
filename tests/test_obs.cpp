// Observability subsystem tests: the counter registry, the sliding
// demand window, the timeline tracer's JSON export and -- the contract
// the whole subsystem hangs on -- that instrumentation never perturbs
// simulation results (trace on/off => byte-identical sink output).
// Also the streaming-merge memory regression: folding N slices must
// keep O(jobs) live aggregators, not O(N).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/checkpoint.hpp"
#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "exp/sinks.hpp"
#include "metrics/aggregator.hpp"
#include "obs/demand_window.hpp"
#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeline.hpp"
#include "platform/config_file.hpp"
#include "platform/multicore.hpp"
#include "workloads/eembc_like.hpp"
#include "workloads/streaming.hpp"

namespace cbus {
namespace {

using exp::ExperimentResult;
using exp::ExperimentSpec;
using exp::RunOptions;

[[nodiscard]] ExperimentSpec parse(const std::string& text) {
  std::istringstream in(text);
  return exp::parse_experiment(in);
}

[[nodiscard]] std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

[[nodiscard]] std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The JSON sink rendering -- the byte-identity yardstick.
[[nodiscard]] std::string json_of(const ExperimentSpec& spec,
                                  const ExperimentResult& result) {
  std::ostringstream out;
  exp::make_sink(exp::SinkKind::kJson)->write(spec, result.jobs, out);
  return out.str();
}

// --- Registry ---------------------------------------------------------------

TEST(Registry, CounterGaugeTimerReadBack) {
  obs::Registry registry;
  obs::Counter& hits = registry.counter("hits");
  hits.add();
  hits.add(4);
  obs::Gauge& depth = registry.gauge("depth");
  depth.set(3.0);
  depth.set(1.5);
  registry.timer("fold").add(std::chrono::nanoseconds(2'000'000));

  if constexpr (obs::kEnabled) {
    EXPECT_EQ(registry.counter("hits").value(), 5u);
    EXPECT_DOUBLE_EQ(registry.gauge("depth").value(), 1.5);
    EXPECT_DOUBLE_EQ(registry.gauge("depth").max(), 3.0);
    EXPECT_EQ(registry.timer("fold").intervals(), 1u);
    EXPECT_DOUBLE_EQ(registry.timer("fold").total_seconds(), 2e-3);
  } else {
    EXPECT_EQ(registry.counter("hits").value(), 0u);  // compiled out
  }
}

TEST(Registry, SameNameReturnsSameInstrument) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("x");
  // Force deque growth; `a` must stay valid (reference stability).
  for (int i = 0; i < 100; ++i) {
    (void)registry.counter("c" + std::to_string(i));
  }
  EXPECT_EQ(&a, &registry.counter("x"));
}

TEST(Registry, SnapshotPreservesRegistrationOrder) {
  obs::Registry registry;
  (void)registry.counter("first");
  (void)registry.gauge("second");
  (void)registry.timer("third");
  (void)registry.counter("fourth");
  const std::vector<obs::Registry::Sample> snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].name, "first");
  EXPECT_EQ(snap[1].name, "second");
  EXPECT_EQ(snap[2].name, "third");
  EXPECT_EQ(snap[3].name, "fourth");
}

TEST(Registry, WriteJsonRendersEveryInstrument) {
  obs::Registry registry;
  registry.counter("requests").add(7);
  std::ostringstream out;
  registry.write_json(out);
  EXPECT_NE(out.str().find("\"requests\""), std::string::npos) << out.str();
}

// --- DemandWindow -----------------------------------------------------------

TEST(DemandWindow, CountsRecentEventsOnly) {
  obs::DemandWindow window(2, /*window=*/64, /*buckets=*/16);
  window.record(0, 10);
  window.record(0, 11);
  window.record(1, 12, 5);
  EXPECT_EQ(window.demand(0, 12), 2u);
  EXPECT_EQ(window.demand(1, 12), 5u);
  // Far past the window, everything has expired.
  EXPECT_EQ(window.demand(0, 10'000), 0u);
  EXPECT_EQ(window.demand(1, 10'000), 0u);
}

TEST(DemandWindow, RateIsDemandOverWindow) {
  obs::DemandWindow window(1, /*window=*/64, /*buckets=*/16);
  for (Cycle c = 0; c < 32; ++c) window.record(0, c);
  const double rate = window.rate(0, 31);
  EXPECT_GT(rate, 0.0);
  EXPECT_LE(rate, 1.0);
}

// --- Timeline (through the runner, as --trace uses it) ----------------------

/// A tiny 4-core H-CBA contention campaign, the acceptance scenario.
[[nodiscard]] ExperimentSpec hcba_spec() {
  return parse(
      "name = obs-test\n"
      "scenario = con\n"
      "kernel = matrix\n"
      "setup = hcba\n"
      "cores = 4\n"
      "runs = 3\n"
      "seed = 0x0B5\n"
      "summary = off\n");
}

TEST(Timeline, TraceFileContainsSpansAndCounterTracks) {
  ExperimentSpec spec = hcba_spec();
  spec.trace_path = temp_path("obs_trace.json");
  spec.trace_run = 1;
  const ExperimentResult result = exp::run_experiment(spec, 1u);
  ASSERT_EQ(result.failed_jobs(), 0u);

  const std::string trace = file_bytes(spec.trace_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"bus masters\""), std::string::npos);
  EXPECT_NE(trace.find("\"credit m0\""), std::string::npos);
  EXPECT_NE(trace.find("\"eligible m3\""), std::string::npos);
  EXPECT_NE(trace.find("\"demand m0\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);  // spans
  EXPECT_NE(trace.find("\"ph\": \"C\""), std::string::npos);  // counters
  EXPECT_NE(trace.find("\"provenance\""), std::string::npos);
  std::remove(spec.trace_path.c_str());
}

TEST(Timeline, SegmentedTraceHasBridgeQueueTracks) {
  ExperimentSpec spec = hcba_spec();
  spec.set_platform_key("topology", "segmented:2");
  spec.trace_path = temp_path("obs_seg_trace.json");
  const ExperimentResult result = exp::run_experiment(spec, 1u);
  ASSERT_EQ(result.failed_jobs(), 0u);

  const std::string trace = file_bytes(spec.trace_path);
  EXPECT_NE(trace.find("\"bridge s0->s1\""), std::string::npos);
  EXPECT_NE(trace.find("\"bridge s1->s0\""), std::string::npos);
  std::remove(spec.trace_path.c_str());
}

TEST(Timeline, WindowBoundsCaptureVolume) {
  ExperimentSpec spec = hcba_spec();
  spec.trace_path = temp_path("obs_window_trace.json");
  spec.trace_window_begin = 100;
  spec.trace_window_end = 200;
  const ExperimentResult result = exp::run_experiment(spec, 1u);
  ASSERT_EQ(result.failed_jobs(), 0u);
  const std::string narrow = file_bytes(spec.trace_path);

  spec.trace_window_begin = 0;
  spec.trace_window_end = std::numeric_limits<Cycle>::max();
  (void)exp::run_experiment(spec, 1u);
  const std::string full = file_bytes(spec.trace_path);

  EXPECT_LT(narrow.size(), full.size());
  std::remove(spec.trace_path.c_str());
}

/// The contract everything else rests on: instrumenting a run must not
/// change a single output byte.
TEST(Timeline, TracingDoesNotPerturbResults) {
  ExperimentSpec bare = hcba_spec();
  const ExperimentResult reference = exp::run_experiment(bare, 1u);

  ExperimentSpec traced = hcba_spec();
  traced.trace_path = temp_path("obs_perturb_trace.json");
  traced.trace_run = 0;
  const ExperimentResult instrumented = exp::run_experiment(traced, 1u);

  // Hash the spec identically (obs keys are excluded from the hash)...
  EXPECT_EQ(exp::spec_hash(bare), exp::spec_hash(traced));
  // ...and produce byte-identical sink output.
  EXPECT_EQ(json_of(bare, reference), json_of(bare, instrumented));
  std::remove(traced.trace_path.c_str());
}

/// Batched campaigns: the instrument hook forces single-lane batches
/// (lockstep lanes must be exact replicas), which must still be
/// byte-identical to the bare lockstep run.
TEST(Timeline, TracingABatchedCampaignDoesNotPerturbResults) {
  ExperimentSpec bare = hcba_spec();
  bare.batch = 4;
  const ExperimentResult reference = exp::run_experiment(bare, 2u);

  ExperimentSpec traced = bare;
  traced.trace_path = temp_path("obs_batched_trace.json");
  traced.trace_run = 2;
  const ExperimentResult instrumented = exp::run_experiment(traced, 2u);

  EXPECT_EQ(json_of(bare, reference), json_of(bare, instrumented));
  EXPECT_FALSE(file_bytes(traced.trace_path).empty());
  std::remove(traced.trace_path.c_str());
}

/// The tracer reads credit budgets and eligibility that live behind the
/// segmented interconnect's per-segment clocks: its whole capture must
/// equal the one taken on the same machine with every segment held
/// current (ticked every cycle).
TEST(Timeline, SegmentedCorunTraceMatchesEverySegmentHeldCurrent) {
  const auto trace = [](bool hold_current) {
    std::istringstream text(
        "cores = 8\nsetup = hcba\narbiter = rr\ntopology = mesh:2x2\n"
        "bridge_depth = 1\n");
    const platform::PlatformConfig config = platform::parse_config(text);
    std::unique_ptr<cpu::OpStream> tua = workloads::make_eembc("canrdr");
    tua->reset(7);
    std::vector<std::unique_ptr<cpu::OpStream>> corunners;
    std::vector<cpu::OpStream*> ptrs;
    for (MasterId m = 1; m < 8; ++m) {
      corunners.push_back(std::make_unique<workloads::StreamingStream>(2));
      corunners.back()->reset(m);
      ptrs.push_back(corunners.back().get());
    }
    platform::Multicore machine(config, 7, *tua, ptrs);
    if (hold_current) machine.segmented()->hold_segments_current();
    obs::Timeline timeline(obs::Timeline::Config{.counter_stride = 8});
    timeline.attach(machine);
    (void)machine.run(40'000);
    std::ostringstream out;
    timeline.write_json(out);
    return out.str();
  };
  const std::string lazy = trace(false);
  EXPECT_NE(lazy.find("\"credit m7\""), std::string::npos);
  EXPECT_NE(lazy.find("\"bridge s0->s1\""), std::string::npos);
  EXPECT_TRUE(lazy == trace(true));
}

/// The tracer polls credit state every cycle while the bus, the virtual
/// contenders and the cores run on their own clocks: the whole capture
/// must equal the one taken with every kernel component held current
/// (ticked in every cycle).
std::string single_bus_trace(const std::string& config_text,
                             std::uint32_t corunners, bool hold_current) {
  std::istringstream text(config_text);
  const platform::PlatformConfig config = platform::parse_config(text);
  std::unique_ptr<cpu::OpStream> tua = workloads::make_eembc("canrdr");
  tua->reset(7);
  std::vector<std::unique_ptr<cpu::OpStream>> streams;
  std::vector<cpu::OpStream*> ptrs;
  for (MasterId m = 1; m <= corunners; ++m) {
    streams.push_back(workloads::make_eembc(m % 2 == 0 ? "matrix" : "a2time"));
    streams.back()->reset(m);
    ptrs.push_back(streams.back().get());
  }
  platform::Multicore machine(config, 7, *tua, ptrs);
  obs::Timeline timeline(obs::Timeline::Config{.counter_stride = 8});
  timeline.attach(machine);
  if (hold_current) machine.kernel().hold_components_current();
  (void)machine.run(60'000);
  std::ostringstream out;
  timeline.write_json(out);
  return out.str();
}

TEST(Timeline, SingleBusConTraceMatchesEveryComponentHeldCurrent) {
  const std::string text = "cores = 4\nmode = wcet\nsetup = cba\n";
  const std::string lazy = single_bus_trace(text, 0, false);
  EXPECT_NE(lazy.find("\"credit m3\""), std::string::npos);
  EXPECT_TRUE(lazy == single_bus_trace(text, 0, true));
}

TEST(Timeline, AdaptiveCorunTraceMatchesEveryComponentHeldCurrent) {
  const std::string text =
      "cores = 4\nsetup = hcba\ncontroller = adaptive:1024\n";
  const std::string lazy = single_bus_trace(text, 3, false);
  EXPECT_NE(lazy.find("\"demand m3\""), std::string::npos);
  EXPECT_TRUE(lazy == single_bus_trace(text, 3, true));
}

TEST(Timeline, TraceRunOutOfRangeIsRejected) {
  ExperimentSpec spec = hcba_spec();
  spec.trace_path = temp_path("obs_reject_trace.json");
  spec.trace_run = spec.runs;  // one past the end
  EXPECT_THROW((void)exp::validate_spec(spec), std::invalid_argument);
}

// --- Telemetry --------------------------------------------------------------

TEST(Telemetry, RunnerFillsProgressCounters) {
  ExperimentSpec spec = hcba_spec();
  const ExperimentResult result = exp::run_experiment(spec, 1u);
  const obs::Telemetry& t = result.telemetry;
  EXPECT_EQ(t.total_runs, spec.runs);
  EXPECT_EQ(t.runs_done, spec.runs);
  EXPECT_EQ(t.slices_done, t.total_slices);
  EXPECT_GT(t.wall_seconds, 0.0);
  EXPECT_GT(t.runs_per_sec(), 0.0);
  EXPECT_DOUBLE_EQ(t.eta_seconds(), 0.0);  // finished
  EXPECT_GT(t.peak_rss_kb, 0);
  ASSERT_EQ(t.thread_busy_seconds.size(), 1u);
  EXPECT_GT(t.thread_busy_seconds[0], 0.0);
  EXPECT_EQ(t.slice_wall_ms.count(), t.slices_done);
}

TEST(Telemetry, JsonDocumentCarriesSchemaAndPhase) {
  obs::Telemetry t;
  t.total_runs = 10;
  t.runs_done = 4;
  t.wall_seconds = 2.0;
  t.thread_busy_seconds = {1.0, 0.5};
  std::ostringstream out;
  obs::write_telemetry_json(out, t, "run");
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"phase\": \"run\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"runs_per_sec\""), std::string::npos);
  EXPECT_NE(doc.find("\"thread_busy_fraction\""), std::string::npos);
  EXPECT_NE(doc.find("\"provenance\""), std::string::npos);
}

TEST(Telemetry, EtaCountsRemainingWork) {
  obs::Telemetry t;
  t.total_runs = 100;
  t.runs_done = 50;
  t.wall_seconds = 10.0;  // 5 runs/s -> 10s to go
  EXPECT_DOUBLE_EQ(t.eta_seconds(), 10.0);
}

TEST(ProgressMeter, FinishAlwaysRendersToTheGivenStream) {
  std::ostringstream err;
  obs::ProgressMeter meter(err, 8);
  meter.update(2, 1);  // may be throttled; finish may not be
  meter.finish(8, 4);
  EXPECT_NE(err.str().find("8/8 runs"), std::string::npos) << err.str();
  EXPECT_NE(err.str().find('\n'), std::string::npos);  // line terminated
}

// --- streaming-merge memory regression (census) -----------------------------

/// Fold a 2-job x 12-slice sharded campaign and require the streaming
/// path to hold O(jobs) aggregators, never O(slices). RecordCensus
/// guards the same property for per-run records.
TEST(StreamingFold, PeakLiveAggregatorsIndependentOfSliceCount) {
  ExperimentSpec spec = parse(
      "name = obs-census\n"
      "scenario = con\n"
      "kernel = matrix\n"
      "sweep setup = rp cba\n"
      "runs = 12\n"
      "batch = 2\n"
      "seed = 0xFACE\n"
      "retain = stream\n"
      "summary = off\n");

  // Shard the campaign into 3 checkpoint files.
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < 3; ++i) {
    RunOptions options;
    options.threads_override = 1;
    options.shard_index = i;
    options.shard_count = 3;
    options.checkpoint_path =
        temp_path("obs_census_shard" + std::to_string(i) + ".ckpt");
    (void)exp::run_experiment(spec, options);
    paths.push_back(options.checkpoint_path);
  }

  const std::uint64_t before = metrics::Aggregator::live_count();
  metrics::Aggregator::reset_peak_live_count();
  const ExperimentResult folded = exp::fold_checkpoints_streaming(spec, paths);
  const std::uint64_t peak = metrics::Aggregator::peak_live_count();

  // 2 job results in flight plus one decoded slice and small transients;
  // the 12-slice plan must NOT show up in the peak. (The materializing
  // path would hold all 12 at once.)
  EXPECT_LE(peak - before, 6u) << "streaming fold materialized slices";

  // And the streamed result matches the materializing path bit for bit.
  const exp::LoadedCheckpoint merged = exp::merge_checkpoints(spec, paths);
  const ExperimentResult reference =
      exp::finalize_from_slices(spec, merged.slices);
  EXPECT_EQ(json_of(spec, reference), json_of(spec, folded));

  // Fold telemetry covered the whole campaign.
  EXPECT_EQ(folded.telemetry.slices_done, 12u);
  EXPECT_EQ(folded.telemetry.runs_done, 24u);

  for (const std::string& path : paths) std::remove(path.c_str());
}

TEST(StreamingFold, RejectsIncompleteCheckpointSet) {
  ExperimentSpec spec = parse(
      "name = obs-census2\n"
      "scenario = con\n"
      "kernel = matrix\n"
      "runs = 4\n"
      "batch = 2\n"
      "seed = 0xD0\n"
      "retain = stream\n"
      "summary = off\n");
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < 2; ++i) {
    RunOptions options;
    options.threads_override = 1;
    options.shard_index = i;
    options.shard_count = 2;
    options.checkpoint_path =
        temp_path("obs_census2_shard" + std::to_string(i) + ".ckpt");
    (void)exp::run_experiment(spec, options);
    paths.push_back(options.checkpoint_path);
  }
  try {
    (void)exp::fold_checkpoints_streaming(spec, {paths[0]});
    FAIL() << "should have rejected one file of a two-shard set";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint file(s) were given"),
              std::string::npos)
        << e.what();
  }
  for (const std::string& path : paths) std::remove(path.c_str());
}

}  // namespace
}  // namespace cbus
