// cbus::vec kernel semantics and the scalar-vs-SIMD identity contract.
//
// Two layers:
//  * kernel units -- every vec entry point checked against an
//    independent re-implementation of the Table-I formula, on random
//    inputs, under both the configured ISA and force_scalar(true); the
//    two dispatches must agree to the bit, including the padding lanes
//    (which must come back untouched) and the tail mask of eq_mask_row.
//  * campaign batteries -- the batch credit engine, driven directly as
//    perfbench's traced replica drives it, against the classic skipping
//    path every campaign takes: byte-identical per-run records across
//    batch {1,3,8} x threads {1,4}, tail stripes (runs % batch != 0),
//    lane counts below/above the vector width, a wide (8-core) machine,
//    and a slice matrix of lanes {2,5,8,12,64} x cores {4,8} x
//    rp/cba/hcba x static/adaptive controllers x ISA/scalar kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/cba_config.hpp"
#include "core/credit_state.hpp"
#include "platform/config_file.hpp"
#include "platform/multicore.hpp"
#include "platform/platform_config.hpp"
#include "platform/scenarios.hpp"
#include "rng/splitmix64.hpp"
#include "sim/batch_kernel.hpp"
#include "vec/vec.hpp"
#include "workloads/eembc_like.hpp"
#include "workloads/kernel_stream.hpp"

namespace {

using namespace cbus;

/// Deterministic 64-bit generator for fuzz inputs (tests must not draw
/// from global randomness).
struct Mix {
  std::uint64_t s = 0x9E3779B97F4A7C15ULL;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  /// A value in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// A lane mask honouring the padding contract: bits >= n are zero.
  std::uint64_t mask(std::uint32_t n) {
    return n < 64 ? next() & ((std::uint64_t{1} << n) - 1) : next();
  }
};

/// Independent reference for the Table-I per-lane step (vec.hpp's
/// documented semantics, written the naive way).
std::uint64_t reference_tick(std::uint64_t value, std::uint64_t inc,
                             std::uint64_t charge, std::uint64_t cap,
                             bool* clamped) {
  const std::uint64_t up = value + inc;
  if (up < charge) {
    *clamped = true;
    return 0;
  }
  *clamped = false;
  return std::min(up - charge, cap);
}

/// RAII guard: force the scalar dispatch for one scope.
struct ScalarGuard {
  ScalarGuard() { vec::force_scalar(true); }
  ~ScalarGuard() { vec::force_scalar(false); }
};

constexpr std::size_t kPad = vec::kLaneAlign;

/// A padded row of `n` live lanes plus poison padding whose survival the
/// tests assert (kernels may read and blend-store the padding, but its
/// value must never change).
struct PaddedRow {
  std::vector<std::uint64_t> data;
  explicit PaddedRow(std::uint32_t n, Mix& mix, std::uint64_t bound) {
    const std::size_t padded = ((n + kPad - 1) / kPad) * kPad;
    data.resize(padded);
    for (std::size_t l = 0; l < padded; ++l) data[l] = mix.below(bound);
  }
};

TEST(VecKernels, CreditTickRowMatchesReference) {
  Mix mix;
  for (const std::uint32_t n : {1u, 3u, 7u, 8u, 9u, 24u, 63u}) {
    for (int iter = 0; iter < 50; ++iter) {
      const std::uint64_t cap = 1 + mix.below(300);
      const std::uint64_t scale = 1 + mix.below(8);
      PaddedRow values(n, mix, cap + 10);
      PaddedRow incs(n, mix, 4);
      const std::uint64_t charge_mask = mix.mask(n);
      const std::uint64_t update_mask = mix.mask(n);
      const std::vector<std::uint64_t> before = values.data;

      std::vector<std::uint64_t> want = values.data;
      std::uint64_t want_clamp = 0;
      for (std::uint32_t l = 0; l < n; ++l) {
        if (((update_mask >> l) & 1u) == 0) continue;
        bool clamped = false;
        want[l] = reference_tick(before[l], incs.data[l],
                                 ((charge_mask >> l) & 1u) ? scale : 0, cap,
                                 &clamped);
        if (clamped) want_clamp |= std::uint64_t{1} << l;
      }

      const vec::CreditRow row{
          values.data.data(),
          incs.data.data(),
          scale,
          cap,
          charge_mask,
          update_mask,
          n,
      };
      const std::uint64_t got_clamp = vec::credit_tick_row(row);
      EXPECT_EQ(got_clamp, want_clamp) << "n=" << n;
      for (std::size_t l = 0; l < values.data.size(); ++l) {
        EXPECT_EQ(values.data[l], want[l]) << "n=" << n << " lane " << l;
      }
    }
  }
}

TEST(VecKernels, IsaMatchesScalarOnRandomRows) {
  Mix mix;
  for (const std::uint32_t n : {1u, 5u, 8u, 13u, 24u, 40u, 64u}) {
    for (int iter = 0; iter < 50; ++iter) {
      const std::uint64_t cap = 1 + mix.below(300);
      const std::uint64_t scale = 1 + mix.below(8);
      PaddedRow values(n, mix, cap + 10);
      PaddedRow incs(n, mix, 4);
      const std::uint64_t charge_mask = mix.mask(n);
      const std::uint64_t update_mask = mix.mask(n);

      std::vector<std::uint64_t> isa_values = values.data;
      std::vector<std::uint64_t> sca_values = values.data;
      vec::CreditRow row{
          isa_values.data(),
          incs.data.data(),
          scale,
          cap,
          charge_mask,
          update_mask,
          n,
      };
      const std::uint64_t isa_clamp = vec::credit_tick_row(row);
      std::uint64_t sca_clamp = 0;
      {
        ScalarGuard scalar;
        row.values = sca_values.data();
        sca_clamp = vec::credit_tick_row(row);
      }
      EXPECT_EQ(isa_clamp, sca_clamp) << "n=" << n;
      EXPECT_EQ(isa_values, sca_values) << "n=" << n;
    }
  }
}

TEST(VecKernels, CreditTickCycleMatchesPerRowCalls) {
  Mix mix;
  // slots > n_masters exercises the widened-arena geometry (the
  // segmented interconnect's extra bridge-port slots share the stride).
  for (const std::uint32_t slots : {2u, 4u, 11u}) {
    for (const std::uint32_t lanes : {1u, 3u, 8u, 24u}) {
      const std::uint32_t stride =
          ((lanes + kPad - 1) / kPad) * kPad;
      const std::uint64_t scale = 1 + mix.below(8);
      std::vector<std::uint64_t> values(slots * stride);
      std::vector<std::uint64_t> incs(slots * stride);
      std::vector<std::uint64_t> caps(slots);
      std::vector<std::uint64_t> charge(slots);
      for (std::uint32_t m = 0; m < slots; ++m) {
        caps[m] = 1 + mix.below(300);
        charge[m] = mix.mask(lanes);
        for (std::uint32_t l = 0; l < stride; ++l) {
          values[m * stride + l] = mix.below(caps[m] + 10);
          incs[m * stride + l] = mix.below(4);
        }
      }
      const std::uint64_t update_mask = mix.mask(lanes);

      std::vector<std::uint64_t> want = values;
      std::vector<std::uint64_t> want_clamped(slots);
      for (std::uint32_t m = 0; m < slots; ++m) {
        const vec::CreditRow row{
            want.data() + m * stride,
            incs.data() + m * stride,
            scale,
            caps[m],
            charge[m],
            update_mask,
            lanes,
        };
        want_clamped[m] = vec::credit_tick_row(row);
      }

      std::vector<std::uint64_t> got = values;
      std::vector<std::uint64_t> got_clamped(slots);
      const vec::CreditCycle cycle{
          got.data(),
          incs.data(),
          caps.data(),
          charge.data(),
          got_clamped.data(),
          scale,
          update_mask,
          stride,
          lanes,
          slots,
      };
      vec::credit_tick_cycle(cycle);
      EXPECT_EQ(got, want) << "slots=" << slots << " lanes=" << lanes;
      EXPECT_EQ(got_clamped, want_clamped)
          << "slots=" << slots << " lanes=" << lanes;
    }
  }
}

TEST(VecKernels, EqMaskRowMasksTailLanes) {
  // Every padding lane holds the target value; bits >= n must stay 0.
  for (const std::uint32_t n : {1u, 3u, 7u, 8u, 12u, 63u}) {
    const std::size_t padded = ((n + kPad - 1) / kPad) * kPad;
    std::vector<std::uint64_t> row(padded, 42);
    const std::uint64_t mask = vec::eq_mask_row(row.data(), 42, n);
    EXPECT_EQ(mask, n < 64 ? (std::uint64_t{1} << n) - 1 : ~std::uint64_t{0})
        << "n=" << n;
  }
}

TEST(VecKernels, SatWordsMatchesEqMaskPerRow) {
  Mix mix;
  const std::uint32_t lanes = 13;
  const std::uint32_t stride = ((lanes + kPad - 1) / kPad) * kPad;
  const std::uint32_t arena_slots = 9;
  std::vector<std::uint64_t> values(arena_slots * stride);
  for (auto& v : values) v = mix.below(5);
  const std::vector<std::uint32_t> slots = {1, 4, 8};
  const std::vector<std::uint64_t> caps = {3, 0, 4};
  std::vector<std::uint64_t> out(slots.size(), ~std::uint64_t{0});

  const vec::SatQuery query{
      values.data(),
      slots.data(),
      caps.data(),
      out.data(),
      stride,
      lanes,
      static_cast<std::uint32_t>(slots.size()),
  };
  vec::sat_words(query);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(out[i], vec::eq_mask_row(values.data() + slots[i] * stride,
                                       caps[i], lanes))
        << "query " << i;
  }
}

TEST(VecKernels, ArgmaxTiesBreakTowardsFirstIndex) {
  const std::array<std::int64_t, 5> scores = {3, 7, 7, -1, 7};
  EXPECT_EQ(vec::argmax_i64(scores.data(), scores.size()), 1);
  const std::array<std::int64_t, 3> absent = {INT64_MIN, INT64_MIN,
                                              INT64_MIN};
  EXPECT_EQ(vec::argmax_i64(absent.data(), absent.size()), -1);
  EXPECT_EQ(vec::argmax_i64(scores.data(), 1), 0);
}

TEST(VecKernels, DispatchReportsAreConsistent) {
  const std::string configured = vec::configured_isa();
  EXPECT_EQ(std::string(vec::active_isa()), configured);
  {
    ScalarGuard scalar;
    EXPECT_EQ(std::string(vec::active_isa()), "scalar");
  }
  EXPECT_EQ(std::string(vec::active_isa()), configured);
}

// --- campaign batteries: engine vs classic, byte for byte -------------
//
// Campaigns always take the classic skipping path, so the engine is
// driven directly here: each slice is built the way perfbench's traced
// replica builds it (CreditSoA + BatchCreditEngine + Multicore lanes on
// the engine + a staged BatchKernel) and compared with
// run_campaign_slice run by run, key by key.

[[nodiscard]] platform::PlatformConfig config_from(const std::string& text) {
  std::istringstream in(text);
  return platform::parse_config(in);
}

/// The max-contention campaign the engine was built for: a real
/// EEMBC-like TuA against greedy MaxL virtual contenders under CBA.
[[nodiscard]] platform::CampaignSpec engine_spec(std::uint32_t runs,
                                                 std::uint32_t batch,
                                                 std::uint32_t threads,
                                                 std::uint32_t cores = 0) {
  platform::CampaignSpec spec;
  spec.protocol = platform::CampaignSpec::Protocol::kMaxContention;
  spec.config = platform::PlatformConfig::paper_wcet(platform::BusSetup::kCba);
  if (cores != 0) {
    spec.config.n_cores = cores;
    spec.config.cba = core::CbaConfig::homogeneous(
        cores, spec.config.timings.max_latency());
    spec.config.validate();
  }
  spec.tua_factory = []() { return workloads::make_eembc("canrdr"); };
  spec.runs = runs;
  spec.base_seed = 0xBADC0DE;
  spec.batch = batch;
  spec.threads = threads;
  spec.retain_raw = true;  // the batteries compare per-run bytes
  return spec;
}

/// Runs [first_run, first_run + lanes) of `spec` as one slice on the
/// staged engine -- the shape of perfbench's traced replica: the engine
/// serves CBA on the single non-split bus at 2..64 lanes, anything else
/// (RP, a one-lane slice) runs the same lanes without a stage.
[[nodiscard]] std::vector<platform::RunOutcome> engine_slice(
    const platform::CampaignSpec& spec, std::uint32_t first_run,
    std::size_t lanes, bool* staged = nullptr) {
  const platform::PlatformConfig& config = spec.config;
  rng::SplitMix64 mix(spec.base_seed);
  for (std::uint32_t i = 0; i < first_run; ++i) (void)mix.next();

  std::unique_ptr<core::CreditSoA> credit;
  if (config.cba.has_value()) {
    credit = std::make_unique<core::CreditSoA>(lanes, *config.cba,
                                               config.credit_slots());
  }
  std::unique_ptr<core::BatchCreditEngine> engine;
  if (credit != nullptr && !config.topology.segmented() &&
      config.bus_protocol == platform::BusProtocol::kNonSplit &&
      lanes >= 2 && lanes <= 64) {
    engine = std::make_unique<core::BatchCreditEngine>(*credit, *config.cba,
                                                       lanes);
  }
  if (staged != nullptr) *staged = engine != nullptr;

  std::vector<std::unique_ptr<cpu::OpStream>> streams(lanes);
  std::vector<std::unique_ptr<platform::Multicore>> machines(lanes);
  sim::BatchKernel batch(lanes, sim::BatchKernel::kCampaignStripe);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::uint64_t seed = mix.next();
    rng::SplitMix64 stream_seeds(seed);
    streams[lane] = spec.tua_factory();
    streams[lane]->reset(stream_seeds.next());
    machines[lane] = std::make_unique<platform::Multicore>(
        config, seed, *streams[lane], std::vector<cpu::OpStream*>{},
        credit ? credit->lane(lane) : core::CreditLaneView{}, engine.get(),
        lane);
    machines[lane]->attach(batch, lane);
  }
  if (engine != nullptr) batch.set_stage(*engine);

  const std::vector<bool> fired = batch.run_until(
      [&](std::size_t lane) { return machines[lane]->tua_done(); },
      spec.max_cycles);
  std::vector<platform::RunOutcome> outcomes(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    platform::RunResult r = machines[lane]->harvest(fired[lane], batch.now());
    outcomes[lane].finished = r.tua_finished;
    outcomes[lane].record = std::move(r.record);
  }
  return outcomes;
}

/// Every run of `spec` through engine_slice, in slices of spec.batch.
[[nodiscard]] std::vector<platform::RunOutcome> engine_campaign(
    const platform::CampaignSpec& spec) {
  std::vector<platform::RunOutcome> all;
  const std::uint32_t batch = std::max<std::uint32_t>(1, spec.batch);
  for (std::uint32_t first = 0; first < spec.runs; first += batch) {
    for (platform::RunOutcome& outcome :
         engine_slice(spec, first, std::min(batch, spec.runs - first))) {
      all.push_back(std::move(outcome));
    }
  }
  return all;
}

/// Run by run, key by key, element by element, to the bit.
void expect_identical_runs(std::span<const platform::RunOutcome> engine,
                           std::span<const platform::RunOutcome> classic,
                           const std::string& label) {
  ASSERT_EQ(engine.size(), classic.size()) << label;
  for (std::size_t i = 0; i < engine.size(); ++i) {
    const std::string run = label + " run " + std::to_string(i);
    EXPECT_TRUE(engine[i].finished) << run;
    EXPECT_EQ(engine[i].finished, classic[i].finished) << run;
    const metrics::Record& a = engine[i].record;
    const metrics::Record& b = classic[i].record;
    ASSERT_EQ(a.keys(), b.keys()) << run;
    for (const std::string& key : a.keys()) {
      const std::span<const double> x = a.at(key).elements();
      const std::span<const double> y = b.at(key).elements();
      ASSERT_EQ(x.size(), y.size()) << run << ' ' << key;
      for (std::size_t e = 0; e < x.size(); ++e) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(x[e]),
                  std::bit_cast<std::uint64_t>(y[e]))
            << run << ' ' << key << '[' << e << ']';
      }
    }
  }
}

/// The classic campaign's per-run outcomes, in run order (retain_raw
/// keeps unfinished runs out of the aggregate, so none may occur).
[[nodiscard]] std::vector<platform::RunOutcome> campaign_runs(
    const platform::CampaignSpec& spec) {
  const platform::CampaignResult result = platform::run_campaign(spec);
  EXPECT_EQ(result.unfinished_runs, 0u);
  std::vector<platform::RunOutcome> runs(spec.runs);
  const std::vector<std::string> keys = result.aggregate.keys();
  for (std::uint32_t i = 0; i < spec.runs; ++i) {
    runs[i].finished = true;
    for (const std::string& key : keys) {
      const std::size_t width = result.aggregate.width(key);
      std::vector<double> elements(width);
      for (std::size_t e = 0; e < width; ++e) {
        elements[e] = result.aggregate.element_samples(key, e).at(i);
      }
      if (result.aggregate.is_vector(key)) {
        runs[i].record.set(key, std::move(elements));
      } else {
        runs[i].record.set(key, elements.front());
      }
    }
  }
  return runs;
}

TEST(EngineParity, BatchThreadMatrixMatchesClassicPath) {
  // runs = 7 leaves a tail stripe for batch 3 (7 % 3 == 1) and 8
  // (7 % 8 == 7: one under-full stripe, below the vector width).
  for (const std::uint32_t batch : {1u, 3u, 8u}) {
    const std::vector<platform::RunOutcome> engine =
        engine_campaign(engine_spec(7, batch, 1));
    for (const std::uint32_t threads : {1u, 4u}) {
      expect_identical_runs(
          engine, campaign_runs(engine_spec(7, batch, threads)),
          "batch=" + std::to_string(batch) +
              " threads=" + std::to_string(threads));
    }
  }
}

TEST(EngineParity, WideStripeAboveVectorWidthMatches) {
  // One 12-lane stripe: above the widest 8-lane block, with a 4-lane
  // vector tail inside the row.
  const platform::CampaignSpec spec = engine_spec(12, 12, 1);
  expect_identical_runs(engine_campaign(spec), campaign_runs(spec),
                        "12-lane stripe");
}

TEST(EngineParity, EightCoreMachineMatches) {
  // The credit-bound end of the spectrum (BM_CampaignBatchWide's shape):
  // 7 greedy contender banks, 8 Table-I slots per lane.
  const platform::CampaignSpec spec = engine_spec(6, 6, 1, 8);
  expect_identical_runs(engine_campaign(spec), campaign_runs(spec),
                        "8-core machine");
}

TEST(EngineParity, ScalarKernelsMatchIsaKernelsOnCampaigns) {
  // Both dispatches of the engine against the one classic result: pins
  // the kernels (not the engine's phase ordering, covered above) on a
  // real workload.
  const platform::CampaignSpec spec = engine_spec(5, 5, 1);
  const std::vector<platform::RunOutcome> classic = campaign_runs(spec);
  expect_identical_runs(engine_campaign(spec), classic, "isa");
  ScalarGuard guard;
  expect_identical_runs(engine_campaign(spec), classic, "scalar");
}

/// A short TuA (10-60k cycles under maximum contention), so the slice
/// matrix below stays cheap at 64 lanes.
[[nodiscard]] workloads::KernelProfile short_profile() {
  workloads::KernelProfile p;
  p.name = "engine-parity";
  p.footprint_bytes = 256 * 1024;
  p.n_ops = 120;
  p.pattern = workloads::AccessPattern::kRandom;
  p.store_permille_1024 = 250;
  p.gap_min = 0;
  p.gap_max = 12;
  p.burst_prob_1024 = 40;
  p.burst_len = 4;
  return p;
}

TEST(EngineParity, SliceMatrixMatchesRunCampaignSlice) {
  // batch x cores x setup x controller x dispatch, every engine slice
  // against run_campaign_slice. Runs 3.. of the campaign: the slice's
  // seed window starts mid-sequence.
  constexpr std::uint32_t kFirst = 3;
  std::uint32_t staged_slices = 0;
  double retunes = 0.0;  // adaptive epochs that moved the increments
  for (const std::uint32_t cores : {4u, 8u}) {
    for (const char* setup : {"rp", "cba", "hcba"}) {
      for (const char* controller : {"static", "adaptive:1024"}) {
        // The adaptive controller retunes CBA increments only.
        if (std::string(setup) == "rp" &&
            std::string(controller) != "static") {
          continue;
        }
        platform::CampaignSpec spec;
        spec.protocol = platform::CampaignSpec::Protocol::kMaxContention;
        spec.config = config_from(
            "cores = " + std::to_string(cores) + "\nmode = wcet\nsetup = " +
            setup + "\ncontroller = " + controller + "\n");
        spec.tua_factory = [] {
          return std::make_unique<workloads::KernelStream>(short_profile());
        };
        spec.runs = kFirst + 64;
        spec.base_seed = 0x5EED + cores;
        spec.max_cycles = 2'000'000;
        for (const std::uint32_t lanes : {2u, 5u, 8u, 12u, 64u}) {
          std::vector<platform::RunOutcome> classic(lanes);
          (void)platform::run_campaign_slice(spec, kFirst, classic);
          for (const platform::RunOutcome& run : classic) {
            if (run.record.has("ctrl.updates")) {
              retunes += run.record.at("ctrl.updates").scalar();
            }
          }
          for (const bool scalar : {false, true}) {
            vec::force_scalar(scalar);
            bool staged = false;
            const std::vector<platform::RunOutcome> engine =
                engine_slice(spec, kFirst, lanes, &staged);
            vec::force_scalar(false);
            staged_slices += staged ? 1 : 0;
            EXPECT_EQ(staged, std::string(setup) != "rp");
            expect_identical_runs(
                engine, classic,
                std::to_string(cores) + " cores " + setup + " " +
                    controller + " lanes " + std::to_string(lanes) +
                    (scalar ? " scalar" : " isa"));
          }
        }
      }
    }
  }
  EXPECT_EQ(staged_slices, 2u * 2 * 2 * 5 * 2);
  EXPECT_GT(retunes, 0.0);
}

}  // namespace
