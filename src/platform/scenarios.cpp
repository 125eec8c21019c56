#include "platform/scenarios.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "core/credit_state.hpp"
#include "rng/splitmix64.hpp"
#include "sim/batch_kernel.hpp"

namespace cbus::platform {

namespace {

/// Validate the spec's contracts and return the effective platform
/// config (kIsolation forces operation mode).
[[nodiscard]] PlatformConfig resolve_campaign_config(
    const CampaignSpec& spec) {
  CBUS_EXPECTS(spec.runs >= 1);
  CBUS_EXPECTS_MSG(spec.tua_factory != nullptr,
                   "a campaign needs CampaignSpec.tua_factory");
  CBUS_EXPECTS_MSG(spec.protocol == CampaignSpec::Protocol::kCorun ||
                       spec.corunner_factories.empty(),
                   spec.protocol == CampaignSpec::Protocol::kIsolation
                       ? "isolation runs the TuA alone"
                       : "maximum contention uses Table-I virtual "
                         "contenders, not real co-runners");

  PlatformConfig config = spec.config;
  switch (spec.protocol) {
    case CampaignSpec::Protocol::kIsolation:
      config.mode = PlatformMode::kOperation;  // no contender injection
      break;
    case CampaignSpec::Protocol::kMaxContention:
      CBUS_EXPECTS_MSG(
          config.mode == PlatformMode::kWcetEstimation,
          "maximum contention is a WCET-estimation-mode protocol");
      break;
    case CampaignSpec::Protocol::kCorun:
      break;  // the configured mode and co-runners apply as-is
  }
  return config;
}

/// Segment-bus cycles a lane's interconnect ticked (0 on the single bus).
[[nodiscard]] std::uint64_t segment_cycles(Multicore& machine) {
  const bus::SegmentedInterconnect* seg = machine.segmented();
  return seg != nullptr ? seg->segment_cycles_executed() : 0;
}

}  // namespace

std::uint64_t run_seed(std::uint64_t base_seed, std::uint32_t run_index) {
  rng::SplitMix64 mix(base_seed);
  std::uint64_t seed = mix.next();
  for (std::uint32_t i = 0; i < run_index; ++i) seed = mix.next();
  return seed;
}

stats::OnlineStats CampaignResult::exec_time() const {
  return aggregate.has("tua.cycles") ? aggregate.element_stats("tua.cycles")
                                     : stats::OnlineStats{};
}

const std::vector<double>& CampaignResult::samples() const {
  static const std::vector<double> kEmpty;
  return aggregate.retains_raw() && aggregate.has("tua.cycles")
             ? aggregate.element_samples("tua.cycles")
             : kEmpty;
}

stats::OnlineStats CampaignResult::bus_utilization() const {
  return aggregate.has("bus.utilization")
             ? aggregate.element_stats("bus.utilization")
             : stats::OnlineStats{};
}

std::uint64_t CampaignResult::credit_underflows() const {
  if (!aggregate.has("credit.underflows")) return 0;
  // Underflow clamps are integer counts, so the exact sum is exact here.
  return static_cast<std::uint64_t>(
      aggregate.element_sum("credit.underflows"));
}

KernelCycles run_campaign_slice(const CampaignSpec& spec,
                                std::uint32_t first_run,
                                std::span<RunOutcome> outcomes) {
  const PlatformConfig config = resolve_campaign_config(spec);
  CBUS_EXPECTS(first_run + outcomes.size() <= spec.runs);
  KernelCycles cycles;
  if (outcomes.empty()) return cycles;
  const std::size_t lanes = outcomes.size();

  // Per-run seeds: the run_seed(base_seed, i) sequence -- skip to this
  // slice's window.
  rng::SplitMix64 mix(spec.base_seed);
  for (std::uint32_t i = 0; i < first_run; ++i) (void)mix.next();

  // One contiguous credit arena for the whole batch (SoA across lanes).
  // Segmented topologies widen each lane by the bridge-port slots. Every
  // slice runs on the striped, quiescence-skipping BatchKernel loop below;
  // the staged core::BatchCreditEngine ticks every cycle and is kept only
  // for perfbench's traced replica and its parity test.
  std::unique_ptr<core::CreditSoA> credit;
  if (config.cba.has_value()) {
    credit = std::make_unique<core::CreditSoA>(lanes, *config.cba,
                                               config.credit_slots());
  }

  struct Lane {
    std::unique_ptr<cpu::OpStream> tua;
    std::vector<std::unique_ptr<cpu::OpStream>> corunners;
    std::unique_ptr<Multicore> machine;
  };
  std::vector<Lane> replicas(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    Lane& r = replicas[lane];
    // Per-run derivation: machine seed, then one stream seed for the TuA
    // and one per co-runner.
    const std::uint64_t seed = mix.next();
    rng::SplitMix64 stream_seeds(seed);
    r.tua = spec.tua_factory();
    CBUS_EXPECTS_MSG(r.tua != nullptr, "tua_factory returned null");
    r.tua->reset(stream_seeds.next());
    std::vector<cpu::OpStream*> corunner_ptrs;
    corunner_ptrs.reserve(spec.corunner_factories.size());
    for (const CampaignSpec::StreamFactory& make : spec.corunner_factories) {
      r.corunners.push_back(make());
      CBUS_EXPECTS_MSG(r.corunners.back() != nullptr,
                       "corunner factory returned null");
      r.corunners.back()->reset(stream_seeds.next());
      corunner_ptrs.push_back(r.corunners.back().get());
    }
    r.machine = std::make_unique<Multicore>(
        config, seed, *r.tua, corunner_ptrs,
        credit ? credit->lane(lane) : core::CreditLaneView{});
  }

  if (spec.instrument) {
    // Instrumented campaigns run each lane in its own single-lane batch:
    // the hook may register extra kernel components (e.g. a tracer) on
    // SOME machines, and lockstep lanes must be exact replicas (equal
    // component counts). The lockstep-equivalence contract makes the
    // outcome bit-identical either way; instrumentation only costs the
    // batching speedup, never determinism.
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      Lane& r = replicas[lane];
      spec.instrument(first_run + static_cast<std::uint32_t>(lane),
                      *r.machine);
      sim::BatchKernel single(1, sim::BatchKernel::kCampaignStripe);
      r.machine->attach(single, 0);
      const std::vector<bool> fired = single.run_until(
          [&](std::size_t) { return r.machine->tua_done(); },
          spec.max_cycles);
      RunResult run = r.machine->harvest(fired[0], single.now());
      outcomes[lane].finished = run.tua_finished;
      outcomes[lane].record = std::move(run.record);
      cycles.executed += single.executed_cycles();
      cycles.simulated += single.simulated_cycles();
      cycles.segment_cycles_executed += segment_cycles(*r.machine);
    }
    return cycles;
  }

  sim::BatchKernel batch(lanes, sim::BatchKernel::kCampaignStripe);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    replicas[lane].machine->attach(batch, lane);
  }

  const std::vector<bool> fired = batch.run_until(
      [&](std::size_t lane) { return replicas[lane].machine->tua_done(); },
      spec.max_cycles);
  cycles.executed = batch.executed_cycles();
  cycles.simulated = batch.simulated_cycles();
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    RunResult r = replicas[lane].machine->harvest(fired[lane], batch.now());
    outcomes[lane].finished = r.tua_finished;
    outcomes[lane].record = std::move(r.record);
    cycles.segment_cycles_executed += segment_cycles(*replicas[lane].machine);
  }
  return cycles;
}

CampaignResult run_campaign(const CampaignSpec& spec) {
  // Partition the runs into contiguous lockstep slices and execute them
  // (optionally across threads). In the default streaming mode every
  // slice folds its outcomes into a local digest immediately and merges
  // it into the total -- exact mergeability makes the merge order
  // irrelevant and peak live Records stay O(batch * threads). With
  // retain_raw the per-run series must keep run order, so all outcomes
  // are materialized and folded serially.
  (void)resolve_campaign_config(spec);  // validate before spawning workers
  const std::uint32_t batch = std::max<std::uint32_t>(1, spec.batch);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> slices;
  for (std::uint32_t first = 0; first < spec.runs; first += batch) {
    slices.emplace_back(first, std::min(batch, spec.runs - first));
  }

  std::uint32_t threads = spec.threads != 0
                              ? spec.threads
                              : std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<std::uint32_t>(
      std::min<std::size_t>(threads, slices.size()));

  std::vector<RunOutcome> outcomes(spec.retain_raw ? spec.runs : 0);
  metrics::Aggregator streamed;
  std::uint32_t streamed_unfinished = 0;
  std::mutex fold_mutex;

  const auto run_slice = [&](std::size_t s) {
    const auto [first, count] = slices[s];
    if (spec.retain_raw) {
      run_campaign_slice(
          spec, first,
          std::span<RunOutcome>(outcomes).subspan(first, count));
      return;
    }
    std::vector<RunOutcome> local(count);
    run_campaign_slice(spec, first, local);
    metrics::Aggregator fold;
    std::uint32_t unfinished = 0;
    for (const RunOutcome& outcome : local) {
      if (!outcome.finished) {
        ++unfinished;
        continue;
      }
      fold.add(outcome.record);
    }
    const std::lock_guard<std::mutex> lock(fold_mutex);
    streamed.merge(fold);
    streamed_unfinished += unfinished;
  };
  if (threads <= 1) {
    for (std::size_t s = 0; s < slices.size(); ++s) run_slice(s);
  } else {
    // Workers capture per-slice exceptions; the lowest-indexed one is
    // rethrown after the join, so failures are thread-count-independent.
    std::vector<std::exception_ptr> errors(slices.size());
    std::atomic<std::size_t> next{0};
    const auto worker = [&]() {
      while (true) {
        const std::size_t s = next.fetch_add(1);
        if (s >= slices.size()) return;
        try {
          run_slice(s);
        } catch (...) {
          errors[s] = std::current_exception();
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::uint32_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }

  CampaignResult result;
  if (!spec.retain_raw) {
    result.aggregate = std::move(streamed);
    result.unfinished_runs = streamed_unfinished;
    return result;
  }
  result.aggregate = metrics::Aggregator(
      metrics::Aggregator::Options{.retain_raw = true});
  for (RunOutcome& outcome : outcomes) {
    if (!outcome.finished) {
      ++result.unfinished_runs;
      continue;
    }
    result.aggregate.add(outcome.record);
  }
  return result;
}

double slowdown(const CampaignResult& x, const CampaignResult& baseline) {
  CBUS_EXPECTS(baseline.exec_time().count() > 0 &&
               x.exec_time().count() > 0);
  CBUS_EXPECTS(baseline.exec_time().mean() > 0.0);
  return x.exec_time().mean() / baseline.exec_time().mean();
}

}  // namespace cbus::platform
