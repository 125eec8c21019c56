#include "platform/scenarios.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "core/batch_engine.hpp"
#include "core/credit_state.hpp"
#include "rng/splitmix64.hpp"
#include "sim/batch_kernel.hpp"
#include "vec/vec.hpp"

namespace cbus::platform {

namespace {

/// Validate the spec's protocol contracts and return the effective
/// platform config (kIsolation forces operation mode). Shared by the
/// shared-stream and batched paths so both enforce identical rules.
[[nodiscard]] PlatformConfig resolve_campaign_config(
    const CampaignSpec& spec) {
  CBUS_EXPECTS(spec.runs >= 1);
  const bool corun = spec.protocol == CampaignSpec::Protocol::kCorun;
  CBUS_EXPECTS_MSG(corun || spec.corunners.empty(),
                   spec.protocol == CampaignSpec::Protocol::kIsolation
                       ? "isolation runs the TuA alone"
                       : "maximum contention uses Table-I virtual "
                         "contenders, not real co-runners");
  CBUS_EXPECTS_MSG(corun || spec.corunner_factories.empty(),
                   "co-runner factories apply to the corun protocol only");

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
  CBUS_EXPECTS_MSG(spec.tua_factory != nullptr,
                   "run_campaign_slice needs the stream-factory form");
  CBUS_EXPECTS(first_run + outcomes.size() <= spec.runs);
  KernelCycles cycles;
  if (outcomes.empty()) return cycles;
  const std::size_t lanes = outcomes.size();

  // Per-run seeds: the run_seed(base_seed, i) sequence, i.e. exactly the
  // draws the serial loop takes -- skip to this slice's window.
  rng::SplitMix64 mix(spec.base_seed);
  for (std::uint32_t i = 0; i < first_run; ++i) (void)mix.next();

  // One contiguous credit arena for the whole batch (SoA across lanes).
  // Segmented topologies widen each lane by the bridge-port slots.
  std::unique_ptr<core::CreditSoA> credit;
  if (config.cba.has_value()) {
    credit = std::make_unique<core::CreditSoA>(lanes, *config.cba,
                                               config.credit_slots());
  }

  // Vectorized fast path (see core::BatchCreditEngine): CBA on the
  // single non-split bus, uninstrumented, masks fit one word. Everything
  // else keeps the classic lane-major stripes -- as does CBUS_SIMD=off,
  // which is how the dispatch-parity matrix pins the two paths
  // byte-for-byte against each other.
  std::unique_ptr<core::BatchCreditEngine> engine;
  // lanes >= 2: a single-lane stripe is the serial reference point -- the
  // vertical engine would only add per-cycle dispatch overhead there, so
  // batch 1 (and a trailing 1-lane tail stripe) keeps the classic path.
  if (!spec.instrument && credit != nullptr && !config.topology.segmented() &&
      config.bus_protocol == BusProtocol::kNonSplit && lanes >= 2 &&
      lanes <= 64 && vec::engine_enabled()) {
    engine = std::make_unique<core::BatchCreditEngine>(*credit, *config.cba,
                                                       lanes);
  }

  struct Lane {
    std::unique_ptr<cpu::OpStream> tua;
    std::vector<std::unique_ptr<cpu::OpStream>> corunners;
    std::unique_ptr<Multicore> machine;
  };
  std::vector<Lane> replicas(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    Lane& r = replicas[lane];
    // Same per-run derivation as the shared-stream path: machine seed,
    // then one stream seed for the TuA and one per co-runner.
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
        credit ? credit->lane(lane) : core::CreditLaneView{}, engine.get(),
        lane);
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
    }
    return cycles;
  }

  sim::BatchKernel batch(lanes, sim::BatchKernel::kCampaignStripe);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    replicas[lane].machine->attach(batch, lane);
  }
  if (engine != nullptr) batch.set_stage(*engine);

  const std::vector<bool> fired = batch.run_until(
      [&](std::size_t lane) { return replicas[lane].machine->tua_done(); },
      spec.max_cycles);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    RunResult r = replicas[lane].machine->harvest(fired[lane], batch.now());
    outcomes[lane].finished = r.tua_finished;
    outcomes[lane].record = std::move(r.record);
  }
  return KernelCycles{batch.executed_cycles(), batch.simulated_cycles()};
}

CampaignResult run_campaign(const CampaignSpec& spec) {
  CBUS_EXPECTS_MSG(
      (spec.tua != nullptr) != (spec.tua_factory != nullptr),
      "set exactly one of CampaignSpec.tua and CampaignSpec.tua_factory");

  if (spec.tua_factory == nullptr) {
    // Shared-stream form: strictly one run at a time (the streams are
    // shared state), the original replay loop.
    CBUS_EXPECTS_MSG(spec.batch <= 1 && spec.threads <= 1,
                     "batched/threaded campaigns need the stream-factory "
                     "form (CampaignSpec.tua_factory)");
    const PlatformConfig config = resolve_campaign_config(spec);
    CampaignResult result;
    result.aggregate = metrics::Aggregator(
        metrics::Aggregator::Options{.retain_raw = spec.retain_raw});
    rng::SplitMix64 mix(spec.base_seed);
    for (std::uint32_t run = 0; run < spec.runs; ++run) {
      const std::uint64_t seed = mix.next();
      rng::SplitMix64 stream_seeds(seed);
      spec.tua->reset(stream_seeds.next());
      for (cpu::OpStream* s : spec.corunners) s->reset(stream_seeds.next());

      Multicore machine(config, seed, *spec.tua, spec.corunners);
      if (spec.instrument) spec.instrument(run, machine);
      const RunResult r = machine.run(spec.max_cycles);

      if (!r.tua_finished) {
        ++result.unfinished_runs;
        continue;
      }
      result.aggregate.add(r.record);
    }
    return result;
  }

  // Factory form: partition the runs into contiguous lockstep slices and
  // execute them (optionally across threads). In the default streaming
  // mode every slice folds its outcomes into a local digest immediately
  // and merges it into the total -- exact mergeability makes the merge
  // order irrelevant and peak live Records stay O(batch * threads). With
  // retain_raw the per-run series must keep run order, so all outcomes
  // are materialized and folded serially, as before.
  CBUS_EXPECTS_MSG(spec.corunners.empty(),
                   "give corunner_factories (not shared corunners) with "
                   "tua_factory");
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
