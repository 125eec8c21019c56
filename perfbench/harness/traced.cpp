#include "traced.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <thread>

#include "core/batch_engine.hpp"
#include "core/credit_state.hpp"
#include "exp/checkpoint.hpp"
#include "exp/sinks.hpp"
#include "mbpta/convergence.hpp"
#include "mbpta/pwcet.hpp"
#include "platform/multicore.hpp"
#include "platform/scenarios.hpp"
#include "rng/splitmix64.hpp"
#include "sim/batch_kernel.hpp"
#include "vec/vec.hpp"
#include "workloads/eembc_like.hpp"
#include "workloads/fixed_stream.hpp"
#include "workloads/phased.hpp"
#include "workloads/streaming.hpp"

namespace perfbench {

namespace {

using namespace cbus;

[[nodiscard]] std::int64_t ns_between(Clock::time_point a,
                                      Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// One worker's spans for one repetition; spans nest through `stack_`.
class SpanBuffer {
 public:
  SpanBuffer(const Options& options, Clock::time_point origin,
             std::uint32_t worker, std::uint32_t rep)
      : options_(&options), origin_(origin), worker_(worker), rep_(rep) {}

  void open(Layer layer, std::int64_t run) {
    spans_.push_back({layer, worker_, rep_,
                      stack_.empty() ? -1 : stack_.back(), run,
                      ns_between(origin_, Clock::now()), 0});
    stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    // The injected delay sits inside the span, charged to its layer.
    if (const auto it = options_->inject_ms.find(layer_name(layer));
        it != options_->inject_ms.end() && it->second > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(it->second));
    }
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end_ns =
        ns_between(origin_, Clock::now());
    stack_.pop_back();
  }
  /// A closed child of the open span covering `duration_ns` from its
  /// start: the engine stage's time, summed over every cycle.
  void add_summed_child(Layer layer, std::int64_t duration_ns) {
    const Tracer::Span& parent =
        spans_[static_cast<std::size_t>(stack_.back())];
    spans_.push_back({layer, worker_, rep_, stack_.back(), parent.run,
                      parent.start_ns, parent.start_ns + duration_ns});
  }
  [[nodiscard]] std::vector<Tracer::Span>& spans() { return spans_; }

 private:
  const Options* options_;
  Clock::time_point origin_;
  std::uint32_t worker_;
  std::uint32_t rep_;
  std::vector<Tracer::Span> spans_;
  std::vector<std::int64_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer& buffer, Layer layer, std::int64_t run = -1)
      : buffer_(buffer) {
    buffer_.open(layer, run);
  }
  ~ScopedSpan() { buffer_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer& buffer_;
};

/// Forwards BatchKernel's per-cycle stage call to the batch credit
/// engine, timing it and counting the live lanes it was handed.
class TimedStage final : public sim::BatchStage {
 public:
  TimedStage(sim::BatchStage& inner, std::size_t width)
      : inner_(inner), width_(width) {}

  void on_cycle(Cycle now, std::span<const std::size_t> live) override {
    const Clock::time_point t0 = Clock::now();
    inner_.on_cycle(now, live);
    ns_ += ns_between(t0, Clock::now());
    ++cycles_;
    live_ += live.size();
  }

  void add_to(Counts& counts) const {
    counts.engine_cycles += static_cast<double>(cycles_);
    counts.engine_live_lanes += static_cast<double>(live_);
    counts.engine_width +=
        static_cast<double>(cycles_) * static_cast<double>(width_);
  }
  [[nodiscard]] std::int64_t ns() const noexcept { return ns_; }

 private:
  sim::BatchStage& inner_;
  std::size_t width_;
  std::int64_t ns_ = 0;
  std::uint64_t cycles_ = 0;
  std::uint64_t live_ = 0;
};

/// A job resolved for execution: what exp's campaign builder derives
/// from a Job (platform config with the protocol's mode applied, the TuA
/// kernel and the co-runner workloads).
struct JobPlan {
  platform::PlatformConfig config;
  std::string kernel;
  std::vector<exp::WorkloadSpec> corunners;
  std::uint64_t seed = 0;
};

[[nodiscard]] std::unique_ptr<cpu::OpStream> make_stream(
    const exp::WorkloadSpec& spec) {
  switch (spec.kind) {
    case exp::WorkloadSpec::Kind::kKernel:
      return workloads::make_eembc(spec.kernel);
    case exp::WorkloadSpec::Kind::kStream:
      return std::make_unique<workloads::StreamingStream>(spec.gap);
    case exp::WorkloadSpec::Kind::kPhased:
      return std::make_unique<workloads::PhaseShiftedStream>(
          spec.period, spec.offset, spec.gap);
    case exp::WorkloadSpec::Kind::kIdle:
      break;
  }
  return std::make_unique<workloads::FixedOpsStream>(std::vector<cpu::MemOp>{});
}

[[nodiscard]] JobPlan plan_job(const exp::ExperimentSpec& spec,
                               const exp::Job& job) {
  JobPlan plan;
  plan.config = job.config;
  plan.kernel = job.kernel;
  plan.seed = job.seed;
  switch (job.scenario) {
    case exp::Scenario::kIsolation:
      plan.config.mode = PlatformMode::kOperation;
      break;
    case exp::Scenario::kMaxContention:
      break;
    case exp::Scenario::kStream:
      for (std::uint32_t i = 0;
           i < std::min<std::uint32_t>(3, job.config.n_cores - 1); ++i) {
        exp::WorkloadSpec stream;
        stream.kind = exp::WorkloadSpec::Kind::kStream;
        plan.corunners.push_back(stream);
      }
      break;
    case exp::Scenario::kCorun: {
      // Masters 1..k in order; unassigned cores below the highest
      // assigned index idle.
      std::uint32_t highest = 0;
      for (const auto& [index, workload] : spec.corunners) {
        if (index < job.config.n_cores) highest = std::max(highest, index);
      }
      for (std::uint32_t core = 1; core <= highest; ++core) {
        const auto it = spec.corunners.find(core);
        plan.corunners.push_back(it == spec.corunners.end()
                                     ? exp::WorkloadSpec{}
                                     : it->second);
      }
      break;
    }
  }
  return plan;
}

[[nodiscard]] double record_sum(const metrics::Record& record,
                                std::string_view key) {
  const metrics::Value* value = record.find(key);
  if (value == nullptr) return 0.0;
  double sum = 0.0;
  for (const double x : value->elements()) sum += x;
  return sum;
}

void count_run(const platform::RunResult& run, platform::Multicore& machine,
               Counts& counts) {
  counts.sim_cycles += static_cast<double>(run.tua_cycles);
  for (std::size_t i = 0; i < machine.real_cores(); ++i) {
    const cpu::CoreStats& stats = machine.core(i).stats();
    counts.cpu_ops += static_cast<double>(stats.ops);
    counts.cpu_cycles += static_cast<double>(stats.cycles);
    counts.cpu_bus_stall += static_cast<double>(stats.bus_stall_cycles);
    counts.l1_hits += static_cast<double>(stats.l1_hits);
    counts.l1_misses += static_cast<double>(stats.l1_misses);
  }
  for (MasterId m = 0; m < machine.config().n_cores; ++m) {
    const mem::L2Stats& l2 = machine.l2().stats(m);
    counts.l2_transactions += static_cast<double>(l2.transactions);
    counts.l2_misses += static_cast<double>(l2.misses_clean + l2.misses_dirty);
    counts.dram_accesses += static_cast<double>(l2.memory_accesses);
  }
  const bus::BusStatistics::Totals totals = run.bus_stats.totals();
  counts.bus_grants += static_cast<double>(totals.grants);
  counts.bus_wait += static_cast<double>(totals.wait_cycles);
  counts.bus_busy += static_cast<double>(run.bus_stats.busy_cycles);
  counts.bus_total += static_cast<double>(run.bus_stats.total_cycles);
  counts.credit_underflows += record_sum(run.record, "credit.underflows");
  counts.seg_bridge_hops += record_sum(run.record, "seg.bridge_hops");
  counts.seg_backpressure_stalls +=
      record_sum(run.record, "seg.backpressure_stalls");
  counts.ctrl_epochs += record_sum(run.record, "ctrl.epochs");
  counts.ctrl_updates += record_sum(run.record, "ctrl.updates");
}

/// platform::run_campaign_slice (uninstrumented path), call for call,
/// with spans around each layer's public call.
void run_slice(const exp::ExperimentSpec& spec, const JobPlan& plan,
               std::uint32_t first_run,
               std::span<platform::RunOutcome> outcomes, SpanBuffer& spans,
               Counts& counts) {
  ScopedSpan slice_span(spans, Layer::kSlice, first_run);
  const platform::PlatformConfig& config = plan.config;
  const std::size_t lanes = outcomes.size();

  rng::SplitMix64 mix(plan.seed);
  for (std::uint32_t i = 0; i < first_run; ++i) (void)mix.next();

  std::unique_ptr<core::CreditSoA> credit;
  if (config.cba.has_value()) {
    credit = std::make_unique<core::CreditSoA>(lanes, *config.cba,
                                               config.credit_slots());
  }
  std::unique_ptr<core::BatchCreditEngine> engine;
  if (credit != nullptr && !config.topology.segmented() &&
      config.bus_protocol == platform::BusProtocol::kNonSplit &&
      lanes >= 2 && lanes <= 64 && vec::engine_enabled()) {
    engine = std::make_unique<core::BatchCreditEngine>(*credit, *config.cba,
                                                       lanes);
  }

  struct Lane {
    std::unique_ptr<cpu::OpStream> tua;
    std::vector<std::unique_ptr<cpu::OpStream>> corunners;
    std::unique_ptr<platform::Multicore> machine;
  };
  std::vector<Lane> replicas(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    Lane& r = replicas[lane];
    const std::int64_t run = first_run + static_cast<std::int64_t>(lane);
    const std::uint64_t seed = mix.next();
    rng::SplitMix64 stream_seeds(seed);
    std::vector<cpu::OpStream*> corunner_ptrs;
    {
      ScopedSpan build(spans, Layer::kStreamBuild, run);
      r.tua = workloads::make_eembc(plan.kernel);
      r.tua->reset(stream_seeds.next());
      for (const exp::WorkloadSpec& workload : plan.corunners) {
        r.corunners.push_back(make_stream(workload));
        r.corunners.back()->reset(stream_seeds.next());
        corunner_ptrs.push_back(r.corunners.back().get());
      }
    }
    ScopedSpan build(spans, Layer::kBuild, run);
    r.machine = std::make_unique<platform::Multicore>(
        config, seed, *r.tua, corunner_ptrs,
        credit ? credit->lane(lane) : core::CreditLaneView{}, engine.get(),
        lane);
  }

  sim::BatchKernel batch(lanes, sim::BatchKernel::kCampaignStripe);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    replicas[lane].machine->attach(batch, lane);
  }
  std::optional<TimedStage> stage;
  if (engine != nullptr) {
    stage.emplace(*engine, std::max<std::size_t>(1, spec.batch));
    batch.set_stage(*stage);
  }

  std::vector<bool> fired;
  spans.open(Layer::kRun, -1);
  fired = batch.run_until(
      [&](std::size_t lane) { return replicas[lane].machine->tua_done(); },
      spec.max_cycles);
  if (stage.has_value()) {
    spans.add_summed_child(Layer::kEngine, stage->ns());
    stage->add_to(counts);
  }
  spans.close();

  for (std::size_t lane = 0; lane < lanes; ++lane) {
    platform::RunResult r;
    {
      ScopedSpan harvest(spans, Layer::kHarvest,
                         first_run + static_cast<std::int64_t>(lane));
      r = replicas[lane].machine->harvest(fired[lane], batch.now());
    }
    count_run(r, *replicas[lane].machine, counts);
    outcomes[lane].finished = r.tua_finished;
    outcomes[lane].record = std::move(r.record);
  }
}

/// exp's per-job MBPTA attachment (block size runs/30, at least 2).
void attach_mbpta(const exp::ExperimentSpec& spec, exp::JobResult& out) {
  mbpta::MbptaConfig config;
  config.block_size = std::max<std::size_t>(2, spec.runs / 30);
  try {
    out.mbpta = mbpta::analyze(out.campaign.samples(), config);
    out.convergence = mbpta::tail_convergence(out.campaign.samples(), config);
  } catch (const std::exception& e) {
    out.mbpta_error = e.what();
  }
}

}  // namespace

const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "bench.rep",        "exp.load",         "platform.slice",
      "workloads.stream_build", "platform.build", "sim.run",
      "core.engine",      "platform.harvest", "metrics.fold",
      "mbpta.fit",        "exp.sink",         "exp.checkpoint"};
  return kNames[static_cast<std::size_t>(layer)];
}

void Counts::add(const Counts& o) {
  sim_cycles += o.sim_cycles;
  cpu_ops += o.cpu_ops;
  cpu_cycles += o.cpu_cycles;
  cpu_bus_stall += o.cpu_bus_stall;
  l1_hits += o.l1_hits;
  l1_misses += o.l1_misses;
  l2_transactions += o.l2_transactions;
  l2_misses += o.l2_misses;
  dram_accesses += o.dram_accesses;
  bus_grants += o.bus_grants;
  bus_wait += o.bus_wait;
  bus_busy += o.bus_busy;
  bus_total += o.bus_total;
  credit_underflows += o.credit_underflows;
  seg_bridge_hops += o.seg_bridge_hops;
  seg_backpressure_stalls += o.seg_backpressure_stalls;
  ctrl_epochs += o.ctrl_epochs;
  ctrl_updates += o.ctrl_updates;
  engine_cycles += o.engine_cycles;
  engine_live_lanes += o.engine_live_lanes;
  engine_width += o.engine_width;
}

TracedRep Tracer::run_rep(std::uint32_t rep) {
  TracedRep out;
  SpanBuffer main(options_, origin_, 0, rep);
  const Clock::time_point t0 = Clock::now();
  main.open(Layer::kRep, -1);

  exp::ExperimentSpec spec;
  std::vector<exp::Job> jobs;
  {
    ScopedSpan load(main, Layer::kLoad);
    spec = prepare_spec(options_);
    jobs = exp::expand(spec);
  }
  std::optional<exp::CheckpointWriter> writer;
  if (!spec.checkpoint_path.empty()) {
    ScopedSpan open(main, Layer::kCheckpoint);
    remove_checkpoint(spec);
    writer.emplace(exp::CheckpointWriter::create(spec.checkpoint_path,
                                                 exp::make_meta(spec, 0, 1)));
  }

  // exp::run_experiment's plan: one job-major slice list over every job.
  const std::uint32_t batch = std::max(1u, spec.batch);
  std::vector<JobPlan> plans;
  std::vector<std::vector<platform::RunOutcome>> outcomes(jobs.size());
  for (const exp::Job& job : jobs) {
    plans.push_back(plan_job(spec, job));
    if (spec.retain_raw) outcomes[job.index].resize(spec.runs);
  }
  const std::uint32_t slices_per_job = (spec.runs + batch - 1) / batch;
  const std::size_t slice_count = jobs.size() * slices_per_job;

  std::vector<std::string> job_errors(jobs.size());
  std::vector<std::size_t> error_slice(jobs.size(), slice_count);
  std::vector<metrics::Aggregator> folded(jobs.size());
  std::vector<std::uint32_t> fold_unfinished(jobs.size(), 0);
  std::mutex mutex;

  std::uint32_t threads =
      spec.threads != 0 ? spec.threads
                        : std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<std::uint32_t>(
      std::max<std::size_t>(1, std::min<std::size_t>(threads, slice_count)));
  std::vector<SpanBuffer> worker_spans;
  for (std::uint32_t w = 0; w < threads; ++w) {
    worker_spans.emplace_back(options_, origin_, w + 1, rep);
  }
  std::vector<Counts> worker_counts(threads);

  const auto run_one = [&](std::size_t s, SpanBuffer& spans, Counts& counts) {
    const std::size_t job = s / slices_per_job;
    const std::uint32_t first =
        static_cast<std::uint32_t>(s % slices_per_job) * batch;
    const std::uint32_t count = std::min(batch, spec.runs - first);
    if (spec.retain_raw) {
      run_slice(spec, plans[job], first,
                std::span<platform::RunOutcome>(outcomes[job])
                    .subspan(first, count),
                spans, counts);
      return;
    }
    std::vector<platform::RunOutcome> local(count);
    run_slice(spec, plans[job], first, local, spans, counts);
    exp::SliceState state;
    state.slice = static_cast<std::uint32_t>(s);
    state.job = static_cast<std::uint32_t>(job);
    state.first_run = first;
    state.run_count = count;
    {
      ScopedSpan fold(spans, Layer::kFold);
      for (const platform::RunOutcome& outcome : local) {
        if (!outcome.finished) {
          ++state.unfinished;
          continue;
        }
        state.aggregate.add(outcome.record);
      }
    }
    const std::lock_guard<std::mutex> lock(mutex);
    if (writer.has_value()) {
      ScopedSpan append(spans, Layer::kCheckpoint);
      writer->append(state);
    }
    ScopedSpan merge(spans, Layer::kFold);
    folded[job].merge(state.aggregate);
    fold_unfinished[job] += state.unfinished;
  };

  std::atomic<std::size_t> next{0};
  const auto worker = [&](std::uint32_t me) {
    while (true) {
      const std::size_t s = next.fetch_add(1);
      if (s >= slice_count) break;
      try {
        run_one(s, worker_spans[me], worker_counts[me]);
      } catch (const std::exception& e) {
        const std::size_t job = s / slices_per_job;
        const std::lock_guard<std::mutex> lock(mutex);
        if (s < error_slice[job]) {
          error_slice[job] = s;
          job_errors[job] = e.what();
        }
      }
    }
  };
  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }
  writer.reset();  // flush and close before the size is read

  std::vector<exp::JobResult> results(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    exp::JobResult& result = results[j];
    result.index = jobs[j].index;
    result.axes = jobs[j].axes;
    result.kernel = jobs[j].kernel;
    result.scenario = std::string(exp::to_string(jobs[j].scenario));
    result.seed = jobs[j].seed;
    result.error = job_errors[j];
    if (result.failed()) continue;
    if (spec.retain_raw) {
      {
        ScopedSpan fold(main, Layer::kFold);
        result.campaign.aggregate = metrics::Aggregator(
            metrics::Aggregator::Options{.retain_raw = true});
        for (const platform::RunOutcome& outcome : outcomes[j]) {
          if (!outcome.finished) {
            ++result.campaign.unfinished_runs;
            continue;
          }
          result.campaign.aggregate.add(outcome.record);
        }
      }
    } else {
      result.campaign.aggregate = std::move(folded[j]);
      result.campaign.unfinished_runs = fold_unfinished[j];
    }
    if (spec.pwcet) {
      ScopedSpan fit(main, Layer::kFit);
      attach_mbpta(spec, result);
    }
  }

  std::ostringstream summary;
  {
    ScopedSpan sink(main, Layer::kSink);
    exp::emit_outputs(spec, results, summary);
  }
  main.close();
  out.wall_s = seconds_since(t0);

  out.outputs_digest = outputs_digest(spec, summary.str());
  out.records_digest = records_digest(results);
  out.runs = tally(spec, results);
  out.record_cycles = simulated_cycles(spec, results);
  for (const Counts& counts : worker_counts) out.counts.add(counts);
  if (!spec.checkpoint_path.empty()) {
    out.checkpoint_bytes =
        static_cast<double>(std::filesystem::file_size(spec.checkpoint_path));
  }

  // Keep the spans (parents re-indexed into the process-wide list) and
  // fold this repetition's per-layer times: self time for sim.run.
  std::vector<std::int64_t> layer_ns(kLayerCount, 0);
  const auto keep = [&](std::vector<Span>& spans) {
    const auto offset = static_cast<std::int64_t>(spans_.size());
    for (Span span : spans) {
      if (span.parent >= 0) span.parent += offset;
      const std::int64_t duration = span.end_ns - span.start_ns;
      layer_ns[static_cast<std::size_t>(span.layer)] += duration;
      if (span.layer == Layer::kEngine) {
        layer_ns[static_cast<std::size_t>(Layer::kRun)] -= duration;
      }
      if (span.layer == Layer::kSlice) {
        out.slice_ms.push_back(static_cast<double>(duration) * 1e-6);
      }
      spans_.push_back(span);
    }
  };
  keep(main.spans());
  for (SpanBuffer& spans : worker_spans) keep(spans.spans());
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    out.layer_ms[l] = static_cast<double>(layer_ns[l]) * 1e-6;
  }
  return out;
}

void Tracer::write_spans(std::ostream& out) const {
  out << "{\"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", "
         "\"run\", \"worker\", \"rep\"],\n \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "[\"" << layer_name(s.layer)
        << "\", " << s.start_ns << ", " << s.end_ns << ", " << s.parent
        << ", " << s.run << ", " << s.worker << ", " << s.rep << "]";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
