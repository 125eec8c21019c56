#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <thread>

#include "common/contracts.hpp"
#include "obs/timeline.hpp"
#include "platform/config_file.hpp"
#include "rng/rand_bank.hpp"
#include "workloads/eembc_like.hpp"
#include "workloads/fixed_stream.hpp"
#include "workloads/phased.hpp"
#include "workloads/streaming.hpp"

namespace cbus::exp {

namespace {

/// Resolve one sweep point into a PlatformConfig by layering the axis
/// overrides over the experiment's platform keys over the base text, then
/// handing the whole thing to the platform parser (later lines win).
[[nodiscard]] platform::PlatformConfig make_config(
    const ExperimentSpec& spec, const Job& job) {
  std::ostringstream text;
  text << spec.platform_text << '\n';
  for (const auto& [key, value] : spec.platform_keys) {
    text << key << " = " << value << '\n';
  }
  for (const auto& [key, value] : job.axes) {
    if (key == "kernel" || key == "scenario") continue;
    text << key << " = " << value << '\n';
  }
  // Maximum contention is definitionally a WCET-estimation-mode protocol
  // (paper §III-B), so the scenario implies the mode -- and a declared
  // `mode = operation` (plain key or sweep value) is a contradiction the
  // user must resolve, not something to silently override.
  if (job.scenario == Scenario::kMaxContention) {
    std::string declared;
    if (!spec.platform_text.empty()) {
      std::istringstream base(spec.platform_text);
      platform::scan_config_lines(
          base, [&](const std::string& key, const std::string& value, int) {
            if (key == "mode") declared = value;
          });
    }
    for (const auto& [key, value] : spec.platform_keys) {
      if (key == "mode") declared = value;
    }
    for (const auto& [key, value] : job.axes) {
      if (key == "mode") declared = value;
    }
    CBUS_EXPECTS_MSG(declared.empty() || declared == "wcet",
                     "scenario 'con' is the WCET-estimation protocol and "
                     "conflicts with mode = " + declared);
    text << "mode = wcet\n";
  }
  std::istringstream in(text.str());
  return platform::parse_config(in);
}

[[nodiscard]] std::unique_ptr<cpu::OpStream> make_stream(
    const WorkloadSpec& spec) {
  switch (spec.kind) {
    case WorkloadSpec::Kind::kKernel:
      return workloads::make_eembc(spec.kernel);
    case WorkloadSpec::Kind::kStream:
      return std::make_unique<workloads::StreamingStream>(spec.gap);
    case WorkloadSpec::Kind::kPhased:
      return std::make_unique<workloads::PhaseShiftedStream>(
          spec.period, spec.offset, spec.gap);
    case WorkloadSpec::Kind::kIdle:
      // An empty op list finishes immediately: the core sits idle.
      return std::make_unique<workloads::FixedOpsStream>(
          std::vector<cpu::MemOp>{});
  }
  CBUS_ASSERT(false);
  return nullptr;  // unreachable
}

/// Co-runner workload specs for a corun job: masters 1..k in order, with
/// unassigned cores below the highest assigned index idling.
[[nodiscard]] std::vector<WorkloadSpec> corunner_workloads(
    const ExperimentSpec& spec, std::uint32_t n_cores) {
  std::vector<WorkloadSpec> workloads;
  std::uint32_t highest = 0;
  for (const auto& [index, workload] : spec.corunners) {
    if (index < n_cores) highest = std::max(highest, index);
  }
  for (std::uint32_t core = 1; core <= highest; ++core) {
    const auto it = spec.corunners.find(core);
    workloads.push_back(it == spec.corunners.end()
                            ? WorkloadSpec{}  // idle filler
                            : it->second);
  }
  return workloads;
}

/// The job's campaign in stream-factory form: every run builds its own
/// streams, so any worker thread can execute any contiguous slice of the
/// campaign as one lockstep batch (platform::run_campaign_slice).
[[nodiscard]] platform::CampaignSpec make_campaign(const ExperimentSpec& spec,
                                                   const Job& job) {
  platform::CampaignSpec campaign;
  campaign.config = job.config;
  campaign.base_seed = job.seed;
  campaign.runs = spec.runs;
  campaign.max_cycles = spec.max_cycles;
  campaign.batch = std::max(1u, spec.batch);
  campaign.retain_raw = spec.retain_raw;
  const std::string kernel = job.kernel;
  campaign.tua_factory = [kernel]() { return workloads::make_eembc(kernel); };

  switch (job.scenario) {
    case Scenario::kIsolation:
      campaign.protocol = platform::CampaignSpec::Protocol::kIsolation;
      break;
    case Scenario::kMaxContention:
      campaign.protocol = platform::CampaignSpec::Protocol::kMaxContention;
      break;
    case Scenario::kStream:
      // The legacy cbus_sim scenario: saturating streaming readers on
      // every other core, capped at three.
      campaign.protocol = platform::CampaignSpec::Protocol::kCorun;
      for (std::uint32_t i = 0;
           i < std::min<std::uint32_t>(3, job.config.n_cores - 1); ++i) {
        campaign.corunner_factories.emplace_back([]() {
          return std::make_unique<workloads::StreamingStream>(0);
        });
      }
      break;
    case Scenario::kCorun:
      campaign.protocol = platform::CampaignSpec::Protocol::kCorun;
      for (const WorkloadSpec& workload :
           corunner_workloads(spec, job.config.n_cores)) {
        campaign.corunner_factories.emplace_back(
            [workload]() { return make_stream(workload); });
      }
      break;
  }
  return campaign;
}

/// A JobResult shell carrying the job's identity (everything but the
/// campaign payload), shared by run_job and run_experiment.
[[nodiscard]] JobResult job_shell(const Job& job) {
  JobResult out;
  out.index = job.index;
  out.axes = job.axes;
  out.kernel = job.kernel;
  out.scenario = std::string(to_string(job.scenario));
  out.seed = job.seed;
  return out;
}

/// Run the optional per-job MBPTA analysis (and its tail-convergence
/// diagnostics) over the folded campaign.
void attach_mbpta(const ExperimentSpec& spec, JobResult& out) {
  if (!spec.pwcet) return;
  mbpta::MbptaConfig mcfg;
  mcfg.block_size = std::max<std::size_t>(2, spec.runs / 30);
  try {
    out.mbpta = mbpta::analyze(out.campaign.samples(), mcfg);
    out.convergence = mbpta::tail_convergence(out.campaign.samples(), mcfg);
  } catch (const std::exception& e) {
    out.mbpta_error = e.what();
  }
}

/// Fold a job's per-run outcomes (in run order, retaining the raw
/// series) and attach the optional MBPTA analysis -- the tail of the
/// original run_job.
void finalize_job(const ExperimentSpec& spec,
                  std::span<platform::RunOutcome> outcomes, JobResult& out) {
  out.campaign.aggregate =
      metrics::Aggregator(metrics::Aggregator::Options{.retain_raw = true});
  for (platform::RunOutcome& outcome : outcomes) {
    if (!outcome.finished) {
      ++out.campaign.unfinished_runs;
      continue;
    }
    out.campaign.aggregate.add(outcome.record);
  }
  attach_mbpta(spec, out);
}

}  // namespace

std::size_t ExperimentResult::failed_jobs() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(jobs.begin(), jobs.end(),
                    [](const JobResult& j) { return j.failed(); }));
}

std::vector<Job> expand(const ExperimentSpec& spec) {
  std::size_t total = 1;
  for (const auto& axis : spec.sweeps) {
    CBUS_EXPECTS_MSG(!axis.values.empty(),
                     "sweep '" + axis.key + "' has no values");
    total *= axis.values.size();
  }

  std::vector<Job> jobs;
  jobs.reserve(total);
  std::vector<std::size_t> odometer(spec.sweeps.size(), 0);
  for (std::size_t index = 0; index < total; ++index) {
    Job job;
    job.index = index;
    job.kernel = spec.kernel;
    job.scenario = parse_scenario(spec.scenario);
    for (std::size_t a = 0; a < spec.sweeps.size(); ++a) {
      const std::string& value = spec.sweeps[a].values[odometer[a]];
      job.axes.emplace_back(spec.sweeps[a].key, value);
      if (spec.sweeps[a].key == "kernel") {
        job.kernel = value;
      } else if (spec.sweeps[a].key == "scenario") {
        job.scenario = parse_scenario(value);
      }
    }
    try {
      job.config = make_config(spec, job);
    } catch (const std::invalid_argument& e) {
      std::ostringstream msg;
      msg << "job " << index;
      for (const auto& [k, v] : job.axes) msg << ' ' << k << '=' << v;
      msg << ": " << e.what();
      CBUS_EXPECTS_MSG(false, msg.str());
    }
    jobs.push_back(std::move(job));

    // Advance the odometer, last axis fastest.
    for (std::size_t a = spec.sweeps.size(); a-- > 0;) {
      if (++odometer[a] < spec.sweeps[a].values.size()) break;
      odometer[a] = 0;
    }
  }

  // A co-runner assignment beyond the core count is a declared workload
  // that would silently never run. Under a `cores` sweep, too-small
  // sweep points drop assignments by design, so the bound is the LARGEST
  // core count any corun job runs with.
  std::uint32_t max_corun_cores = 0;
  bool any_corun = false;
  for (const Job& job : jobs) {
    if (job.scenario == Scenario::kCorun) {
      any_corun = true;
      max_corun_cores = std::max(max_corun_cores, job.config.n_cores);
    }
  }
  if (any_corun) {
    for (const auto& [index, workload] : spec.corunners) {
      CBUS_EXPECTS_MSG(index < max_corun_cores,
                       "core" + std::to_string(index) +
                           " assignment would never run: every corun job "
                           "has cores <= " +
                           std::to_string(max_corun_cores));
    }
  }

  // Per-job seed streams from the master seed, in job order, so results
  // do not depend on which thread picks up which job.
  rng::RandBank bank(spec.seed);
  for (Job& job : jobs) job.seed = bank.derive_seed();
  return jobs;
}

JobResult run_job(const ExperimentSpec& spec, const Job& job) {
  JobResult out = job_shell(job);
  try {
    // run_campaign's factory form does the slice partitioning and
    // run-order folding itself (single-threaded here; run_experiment
    // schedules the slices of all jobs on its own pool instead).
    out.campaign = platform::run_campaign(make_campaign(spec, job));
    attach_mbpta(spec, out);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                const RunOptions& options) {
  validate_spec(spec);
  CBUS_EXPECTS(options.shard_count >= 1 &&
               options.shard_index < options.shard_count);
  const std::string checkpoint_path = !options.checkpoint_path.empty()
                                          ? options.checkpoint_path
                                          : spec.checkpoint_path;
  CBUS_EXPECTS_MSG(options.shard_count == 1 || !checkpoint_path.empty(),
                   "sharded runs need a checkpoint file (the shard's "
                   "results live there)");
  CBUS_EXPECTS_MSG(checkpoint_path.empty() || !spec.retain_raw,
                   "checkpointing requires retain = stream (slice digests "
                   "are what the checkpoint stores)");
  CBUS_EXPECTS_MSG(spec.trace_path.empty() || options.shard_count == 1,
                   "tracing a sharded run is ambiguous (the traced run may "
                   "belong to another shard); trace a single-process run");
  const bool progress = spec.progress || options.progress;

  const std::vector<Job> jobs = expand(spec);
  const std::uint32_t batch = std::max(1u, spec.batch);

  // Per-job campaign in factory form plus (raw mode only) its per-run
  // outcome slots. Building the campaign cannot fail (streams are made
  // lazily inside slices), so failures surface per slice below.
  struct Plan {
    platform::CampaignSpec campaign;
    std::vector<platform::RunOutcome> outcomes;
  };
  std::vector<Plan> plans(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    plans[j].campaign = make_campaign(spec, jobs[j]);
    if (spec.retain_raw) plans[j].outcomes.resize(spec.runs);
  }

  // The timeline tracer captures exactly ONE run: run `trace_run` of job
  // 0 (the first sweep point). It rides the campaign's instrument hook;
  // only the single worker executing that run's slice ever touches the
  // Timeline, so no synchronisation is needed. On a checkpoint resume
  // where that slice already finished, the trace file is written with no
  // events (the run was not re-executed).
  std::optional<obs::Timeline> timeline;
  if (!spec.trace_path.empty()) {
    obs::Timeline::Config tcfg;
    tcfg.window_begin = spec.trace_window_begin;
    tcfg.window_end = spec.trace_window_end;
    timeline.emplace(tcfg);
    plans[0].campaign.instrument =
        [&timeline, target = spec.trace_run](std::uint32_t run,
                                             platform::Multicore& machine) {
          if (run == target) timeline->attach(machine);
        };
  }

  // ONE job-major slice plan across every sweep job: batches span jobs,
  // so the worker pool stays busy even when the experiment has fewer
  // jobs than threads (e.g. one job with thousands of runs). In raw
  // mode every slice writes into its job's pre-sized outcome slots and
  // results are folded in run order; in streaming mode each slice folds
  // into a local digest merged under a mutex -- exact mergeability
  // makes both identical for any thread count, batch, shard split or
  // resume. Every job has the same runs/batch, so the plan is a pure
  // function of the slice index and is computed on demand rather than
  // materialized: per-slice bookkeeping vectors would put the run count
  // back into the memory profile that streaming mode exists to flatten
  // (docs/CAMPAIGNS.md pins peak RSS independent of the run count).
  struct Slice {
    std::size_t job;
    std::uint32_t first;
    std::uint32_t count;
  };
  const std::uint32_t slices_per_job = (spec.runs + batch - 1) / batch;
  const std::size_t slice_count =
      jobs.size() * static_cast<std::size_t>(slices_per_job);
  const auto slice_of = [&](std::size_t s) {
    const std::uint32_t first =
        static_cast<std::uint32_t>(s % slices_per_job) * batch;
    return Slice{s / slices_per_job, first,
                 std::min(batch, spec.runs - first)};
  };

  // A failed slice fails its whole job; only the lowest-numbered
  // slice's error is reported so the report is thread-count
  // independent.
  constexpr std::size_t kNoErrorSlice = ~static_cast<std::size_t>(0);
  struct JobError {
    std::size_t slice = kNoErrorSlice;
    std::string message;
  };
  std::vector<JobError> job_errors(jobs.size());
  std::mutex error_mutex;

  // Streaming fold state, one aggregator per job; and the checkpoint,
  // whose already-completed slices are merged in up front and skipped.
  std::vector<metrics::Aggregator> folded(jobs.size());
  std::vector<std::uint32_t> fold_unfinished(jobs.size(), 0);
  std::vector<bool> done(slice_count, false);
  std::mutex fold_mutex;
  std::optional<CheckpointWriter> writer;
  if (!checkpoint_path.empty()) {
    const CheckpointMeta meta =
        make_meta(spec, options.shard_index, options.shard_count);
    CBUS_ASSERT(meta.job_count == jobs.size() &&
                meta.slice_count == slice_count);
    if (std::filesystem::exists(checkpoint_path)) {
      LoadedCheckpoint loaded = load_checkpoint(checkpoint_path);
      validate_checkpoint_meta(loaded.meta, meta);
      for (SliceState& state : loaded.slices) {
        CBUS_EXPECTS_MSG(state.slice < slice_count && !done[state.slice],
                         "checkpoint repeats slice " +
                             std::to_string(state.slice));
        const Slice planned = slice_of(state.slice);
        CBUS_EXPECTS_MSG(
            state.job == planned.job && state.first_run == planned.first &&
                state.run_count == planned.count &&
                state.slice % options.shard_count == options.shard_index,
            "checkpoint slice " + std::to_string(state.slice) +
                " does not match the campaign's slice plan");
        done[state.slice] = true;
        folded[state.job].merge(state.aggregate);
        fold_unfinished[state.job] += state.unfinished;
      }
      writer.emplace(
          CheckpointWriter::append_to(checkpoint_path, loaded.valid_bytes));
    } else {
      writer.emplace(CheckpointWriter::create(checkpoint_path, meta));
    }
  }

  // This shard's share of the plan, minus what the checkpoint already
  // holds -- counted (to size the pool), never materialized.
  std::size_t pending = 0;
  std::uint64_t pending_runs = 0;
  for (std::size_t s = options.shard_index; s < slice_count;
       s += options.shard_count) {
    if (!done[s]) {
      ++pending;
      pending_runs += slice_of(s).count;
    }
  }

  std::uint32_t threads = options.threads_override != 0
                              ? options.threads_override
                              : spec.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads =
      static_cast<std::uint32_t>(std::min<std::size_t>(threads, pending));

  // Telemetry counts only the work this process actually executes:
  // resumed/foreign slices are excluded from the totals, so runs/sec and
  // ETA describe this invocation, not the whole campaign. Counters and
  // the progress meter are updated under fold_mutex (the meter is not
  // thread-safe); busy seconds go to per-worker slots, lock-free.
  obs::Telemetry telemetry;
  telemetry.total_slices = pending;
  telemetry.total_runs = pending_runs;
  telemetry.thread_busy_seconds.assign(std::max(1u, threads), 0.0);
  std::optional<obs::ProgressMeter> meter;
  if (progress) meter.emplace(std::cerr, pending_runs);
  const auto wall_start = std::chrono::steady_clock::now();

  const auto run_one = [&](std::size_t s) {
    const Slice slice = slice_of(s);
    const auto slice_start = std::chrono::steady_clock::now();
    std::optional<SliceState> state;
    platform::KernelCycles cycles;
    if (spec.retain_raw) {
      cycles = platform::run_campaign_slice(
          plans[slice.job].campaign, slice.first,
          std::span<platform::RunOutcome>(plans[slice.job].outcomes)
              .subspan(slice.first, slice.count));
    } else {
      std::vector<platform::RunOutcome> outcomes(slice.count);
      cycles = platform::run_campaign_slice(plans[slice.job].campaign,
                                            slice.first, outcomes);
      state.emplace();
      state->slice = static_cast<std::uint32_t>(s);
      state->job = static_cast<std::uint32_t>(slice.job);
      state->first_run = slice.first;
      state->run_count = slice.count;
      for (const platform::RunOutcome& outcome : outcomes) {
        if (!outcome.finished) {
          ++state->unfinished;
          continue;
        }
        state->aggregate.add(outcome.record);
      }
    }
    const double slice_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - slice_start)
            .count();
    const std::lock_guard<std::mutex> lock(fold_mutex);
    if (state.has_value()) {
      if (writer.has_value()) writer->append(*state);
      folded[slice.job].merge(state->aggregate);
      fold_unfinished[slice.job] += state->unfinished;
    }
    ++telemetry.slices_done;
    telemetry.runs_done += slice.count;
    telemetry.slice_wall_ms.add(slice_ms);
    telemetry.executed_cycles += cycles.executed;
    telemetry.simulated_cycles += cycles.simulated;
    if (meter.has_value()) {
      meter->update(telemetry.runs_done, telemetry.slices_done);
    }
  };

  // Workers claim raw slice indices and skip the ones this shard does
  // not own (or the checkpoint already holds); `done` is read-only once
  // the pool starts, so the scan needs no lock.
  std::atomic<std::size_t> next{0};
  const auto worker = [&](std::uint32_t me) {
    double busy = 0.0;
    while (true) {
      const std::size_t s = next.fetch_add(1);
      if (s >= slice_count) break;
      if (s % options.shard_count != options.shard_index || done[s]) {
        continue;
      }
      const auto t0 = std::chrono::steady_clock::now();
      try {
        run_one(s);
      } catch (const std::exception& e) {
        const std::size_t job = s / slices_per_job;
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (s < job_errors[job].slice) {
          job_errors[job] = JobError{s, e.what()};
        }
      }
      busy += std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    }
    telemetry.thread_busy_seconds[me] += busy;  // exclusive per-worker slot
  };

  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::uint32_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }

  telemetry.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - wall_start)
                               .count();
  telemetry.peak_rss_kb = obs::peak_rss_kb();
  if (meter.has_value()) {
    meter->finish(telemetry.runs_done, telemetry.slices_done);
  }
  if (timeline.has_value()) {
    std::ofstream trace(spec.trace_path, std::ios::trunc);
    CBUS_EXPECTS_MSG(trace.good(),
                     "cannot write trace file: " + spec.trace_path);
    timeline->write_json(trace);
  }

  ExperimentResult result;
  result.jobs.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    JobResult& out = result.jobs[j];
    out = job_shell(jobs[j]);
    // A failed slice fails the whole job (as an exception aborted the
    // whole campaign before).
    if (job_errors[j].slice != kNoErrorSlice) {
      out.error = job_errors[j].message;
    }
    if (!out.error.empty()) continue;
    if (spec.retain_raw) {
      finalize_job(spec, plans[j].outcomes, out);
    } else {
      out.campaign.aggregate = std::move(folded[j]);
      out.campaign.unfinished_runs = fold_unfinished[j];
      attach_mbpta(spec, out);  // no-op: stream mode forbids pwcet
    }
  }
  result.telemetry = std::move(telemetry);
  return result;
}

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                std::uint32_t threads_override) {
  RunOptions options;
  options.threads_override = threads_override;
  return run_experiment(spec, options);
}

ExperimentResult finalize_from_slices(const ExperimentSpec& spec,
                                      const std::vector<SliceState>& slices) {
  validate_spec(spec);
  const std::vector<Job> jobs = expand(spec);
  ExperimentResult result;
  result.jobs.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    result.jobs[j] = job_shell(jobs[j]);
  }
  for (const SliceState& state : slices) {
    CBUS_EXPECTS_MSG(state.job < jobs.size(),
                     "slice state references job " +
                         std::to_string(state.job) + " of " +
                         std::to_string(jobs.size()));
    result.jobs[state.job].campaign.aggregate.merge(state.aggregate);
    result.jobs[state.job].campaign.unfinished_runs += state.unfinished;
  }
  for (JobResult& job : result.jobs) attach_mbpta(spec, job);
  return result;
}

ExperimentResult fold_checkpoints_streaming(
    const ExperimentSpec& spec, const std::vector<std::string>& paths,
    bool progress) {
  validate_spec(spec);
  CBUS_EXPECTS_MSG(!paths.empty(), "no checkpoint files to merge");

  const std::vector<Job> jobs = expand(spec);
  const CheckpointMeta merged_meta = make_meta(spec, 0, 1);
  ExperimentResult result;
  result.jobs.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    result.jobs[j] = job_shell(jobs[j]);
  }

  obs::Telemetry telemetry;
  telemetry.total_slices = merged_meta.slice_count;
  telemetry.total_runs = static_cast<std::uint64_t>(spec.runs) * jobs.size();
  telemetry.thread_busy_seconds.assign(1, 0.0);  // the fold is sequential
  std::optional<obs::ProgressMeter> meter;
  if (progress) meter.emplace(std::cerr, telemetry.total_runs);
  const auto wall_start = std::chrono::steady_clock::now();

  // Every validation merge_checkpoints performs, applied as headers and
  // slices stream past -- never holding more than one slice (and one
  // aggregator per job) live. The first header establishes the shard
  // geometry; exact mergeability makes the fold order irrelevant, so
  // slices fold straight into their job in file order.
  std::uint32_t shard_count = 0;
  std::vector<bool> shard_seen;
  std::vector<bool> slice_seen(merged_meta.slice_count, false);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::uint32_t file_shard = 0;
    (void)stream_checkpoint(
        paths[i],
        [&](const CheckpointMeta& meta) {
          if (shard_count == 0) {
            shard_count = meta.shard_count;
            CBUS_EXPECTS_MSG(
                paths.size() == shard_count,
                "the campaign ran as " + std::to_string(shard_count) +
                    " shard(s) but " + std::to_string(paths.size()) +
                    " checkpoint file(s) were given");
            shard_seen.assign(shard_count, false);
          }
          CBUS_EXPECTS_MSG(meta.shard_index < shard_count,
                           paths[i] + ": shard index " +
                               std::to_string(meta.shard_index) +
                               " out of range for " +
                               std::to_string(shard_count) + " shard(s)");
          validate_checkpoint_meta(
              meta, make_meta(spec, meta.shard_index, shard_count));
          CBUS_EXPECTS_MSG(!shard_seen[meta.shard_index],
                           "two checkpoint files claim shard " +
                               std::to_string(meta.shard_index));
          shard_seen[meta.shard_index] = true;
          file_shard = meta.shard_index;
        },
        [&](SliceState&& state) {
          CBUS_EXPECTS_MSG(state.slice < merged_meta.slice_count,
                           "slice " + std::to_string(state.slice) +
                               " is outside the campaign's slice plan");
          CBUS_EXPECTS_MSG(
              state.slice % shard_count == file_shard,
              "slice " + std::to_string(state.slice) + " appears in shard " +
                  std::to_string(file_shard) +
                  "'s checkpoint but belongs to shard " +
                  std::to_string(state.slice % shard_count));
          CBUS_EXPECTS_MSG(!slice_seen[state.slice],
                           "slice " + std::to_string(state.slice) +
                               " appears twice in the checkpoint set");
          CBUS_EXPECTS_MSG(state.job < jobs.size(),
                           "slice state references job " +
                               std::to_string(state.job) + " of " +
                               std::to_string(jobs.size()));
          slice_seen[state.slice] = true;
          result.jobs[state.job].campaign.aggregate.merge(state.aggregate);
          result.jobs[state.job].campaign.unfinished_runs += state.unfinished;
          ++telemetry.slices_done;
          telemetry.runs_done += state.run_count;
          if (meter.has_value()) {
            meter->update(telemetry.runs_done, telemetry.slices_done);
          }
        });
  }
  for (std::uint32_t s = 0; s < merged_meta.slice_count; ++s) {
    CBUS_EXPECTS_MSG(slice_seen[s],
                     "checkpoint set is incomplete: slice " +
                         std::to_string(s) + " (shard " +
                         std::to_string(s % shard_count) +
                         ") has not finished");
  }
  for (JobResult& job : result.jobs) attach_mbpta(spec, job);

  telemetry.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - wall_start)
                               .count();
  telemetry.thread_busy_seconds[0] = telemetry.wall_seconds;
  telemetry.peak_rss_kb = obs::peak_rss_kb();
  if (meter.has_value()) {
    meter->finish(telemetry.runs_done, telemetry.slices_done);
  }
  result.telemetry = std::move(telemetry);
  return result;
}

}  // namespace cbus::exp
