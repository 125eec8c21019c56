// Platform assembly tests: configuration presets, Multicore wiring,
// SyntheticMaster timing, campaign determinism and the scenario runners.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "metrics/aggregator.hpp"
#include "metrics/record.hpp"
#include "platform/config_file.hpp"
#include "platform/multicore.hpp"
#include "platform/platform_config.hpp"
#include "platform/scenarios.hpp"
#include "platform/synthetic_master.hpp"
#include "rng/splitmix64.hpp"
#include "workloads/eembc_like.hpp"
#include "workloads/fixed_stream.hpp"
#include "workloads/streaming.hpp"

namespace cbus::platform {
namespace {

// --- PlatformConfig presets ----------------------------------------------------

TEST(PlatformConfig, PaperRpHasNoCba) {
  const PlatformConfig cfg = PlatformConfig::paper(BusSetup::kRp);
  EXPECT_FALSE(cfg.cba.has_value());
  EXPECT_EQ(cfg.arbiter, bus::ArbiterKind::kRandomPermutation);
  EXPECT_EQ(cfg.n_cores, 4u);
}

TEST(PlatformConfig, PaperCbaIsHomogeneous) {
  const PlatformConfig cfg = PlatformConfig::paper(BusSetup::kCba);
  ASSERT_TRUE(cfg.cba.has_value());
  EXPECT_EQ(cfg.cba->scale, 4u);
  EXPECT_EQ(cfg.cba->max_latency, 56u);
  EXPECT_DOUBLE_EQ(cfg.cba->bandwidth_share(0), 0.25);
}

TEST(PlatformConfig, PaperHcbaGivesTuaHalf) {
  const PlatformConfig cfg = PlatformConfig::paper(BusSetup::kHcba);
  ASSERT_TRUE(cfg.cba.has_value());
  EXPECT_DOUBLE_EQ(cfg.cba->bandwidth_share(0), 0.5);
}

TEST(PlatformConfig, WcetPresetSelectsContenderPolicy) {
  const PlatformConfig rp = PlatformConfig::paper_wcet(BusSetup::kRp);
  EXPECT_EQ(rp.mode, PlatformMode::kWcetEstimation);
  EXPECT_EQ(rp.contender_policy, core::ContenderPolicy::kAlwaysCompete);
  const PlatformConfig cba = PlatformConfig::paper_wcet(BusSetup::kCba);
  EXPECT_EQ(cba.contender_policy, core::ContenderPolicy::kCompLatch);
  EXPECT_EQ(cba.contender_hold, 56u);
}

TEST(PlatformConfig, ValidateCatchesMismatchedCbaSize) {
  PlatformConfig cfg = PlatformConfig::paper(BusSetup::kCba);
  cfg.n_cores = 2;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(PlatformConfig, ValidateCatchesUnderestimatedMaxL) {
  PlatformConfig cfg = PlatformConfig::paper(BusSetup::kCba);
  cfg.cba = core::CbaConfig::homogeneous(4, 10);  // < 56
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.allow_maxl_underestimate = true;
  EXPECT_NO_THROW(cfg.validate());
}

// --- Multicore wiring -------------------------------------------------------------

TEST(Multicore, IsolationRunFinishes) {
  auto tua = workloads::make_eembc("canrdr");
  tua->reset(1);
  Multicore machine(PlatformConfig::paper(BusSetup::kRp), 1, *tua);
  const RunResult r = machine.run();
  EXPECT_TRUE(r.tua_finished);
  EXPECT_GT(r.tua_cycles, 0u);
  EXPECT_EQ(machine.real_cores(), 1u);
}

TEST(Multicore, SameSeedSameResult) {
  auto tua = workloads::make_eembc("tblook");
  for (int rep = 0; rep < 2; ++rep) {
    // fresh machine each time
  }
  tua->reset(7);
  Multicore a(PlatformConfig::paper(BusSetup::kRp), 99, *tua);
  const Cycle ta = a.run().tua_cycles;
  tua->reset(7);
  Multicore b(PlatformConfig::paper(BusSetup::kRp), 99, *tua);
  const Cycle tb = b.run().tua_cycles;
  EXPECT_EQ(ta, tb);
}

TEST(Multicore, DifferentSeedsUsuallyDiffer) {
  auto tua = workloads::make_eembc("tblook");
  tua->reset(7);
  Multicore a(PlatformConfig::paper(BusSetup::kRp), 1, *tua);
  const Cycle ta = a.run().tua_cycles;
  tua->reset(7);
  Multicore b(PlatformConfig::paper(BusSetup::kRp), 2, *tua);
  const Cycle tb = b.run().tua_cycles;
  EXPECT_NE(ta, tb);  // random placement/replacement differ
}

TEST(Multicore, WcetModeSpawnsVirtualContenders) {
  auto tua = workloads::make_eembc("canrdr");
  tua->reset(3);
  Multicore machine(PlatformConfig::paper_wcet(BusSetup::kCba), 3, *tua);
  // 1 TuA core + 3 contenders + bus = 5 components.
  EXPECT_EQ(machine.kernel().component_count(), 5u);
  const CreditSlot tua_credit = machine.credit_of(0);
  ASSERT_NE(tua_credit.state, nullptr);
  // TuA budget zeroed per §III-B.
  EXPECT_EQ(tua_credit.state->budget(tua_credit.slot), 0u);
}

TEST(Multicore, OperationModeHasNoContenders) {
  auto tua = workloads::make_eembc("canrdr");
  tua->reset(3);
  Multicore machine(PlatformConfig::paper(BusSetup::kCba), 3, *tua);
  EXPECT_EQ(machine.kernel().component_count(), 2u);  // core + bus
  // Operation mode keeps the TuA's budget full at start.
  EXPECT_EQ(machine.credit_of(0).state->budget(0), 224u);
}

TEST(Multicore, RealCorunnersRun) {
  auto tua = workloads::make_eembc("canrdr");
  workloads::StreamingStream s1(0);
  workloads::StreamingStream s2(0);
  tua->reset(5);
  s1.reset(5);
  s2.reset(5);
  Multicore machine(PlatformConfig::paper(BusSetup::kRp), 5, *tua,
                    {&s1, &s2});
  EXPECT_EQ(machine.real_cores(), 3u);
  const RunResult r = machine.run();
  EXPECT_TRUE(r.tua_finished);
  // Streaming corunners used the bus.
  EXPECT_GT(r.bus_stats.master[1].grants, 0u);
  EXPECT_GT(r.bus_stats.master[2].grants, 0u);
}

TEST(Multicore, TooManyWorkloadsRejected) {
  auto tua = workloads::make_eembc("canrdr");
  workloads::StreamingStream s1(0), s2(0), s3(0), s4(0);
  std::vector<cpu::OpStream*> too_many{&s1, &s2, &s3, &s4};
  EXPECT_THROW(
      Multicore(PlatformConfig::paper(BusSetup::kRp), 1, *tua, too_many),
      std::invalid_argument);
}

TEST(Multicore, RunHonoursCycleBudget) {
  auto tua = workloads::make_eembc("matrix");
  tua->reset(1);
  Multicore machine(PlatformConfig::paper(BusSetup::kRp), 1, *tua);
  const RunResult r = machine.run(/*max_cycles=*/100);
  EXPECT_FALSE(r.tua_finished);
  EXPECT_EQ(r.tua_cycles, 100u);
}

// --- one interconnect behind every topology ----------------------------------------

struct InterconnectCase {
  const char* name;
  const char* config;  ///< platform config-file text
  bool observed;       ///< the interconnect has observer hooks
};

// gtest prints the parameter into the test's listed name: print the case
// name, not the object's bytes (which hold addresses).
void PrintTo(const InterconnectCase& c, std::ostream* out) { *out << c.name; }

/// A passive observer counting transfer starts.
class TransferCounter final : public bus::BusObserver {
 public:
  void on_transfer_start(const bus::BusRequest& /*request*/, Cycle /*start*/,
                         Cycle /*hold*/) override {
    ++starts;
  }
  std::uint64_t starts = 0;
};

class MulticoreInterconnect
    : public ::testing::TestWithParam<InterconnectCase> {};

TEST_P(MulticoreInterconnect, ObserverAndCreditLookupMatchTheRecord) {
  std::istringstream in(GetParam().config);
  const PlatformConfig cfg = parse_config(in);
  auto tua = workloads::make_eembc("canrdr");
  auto corunner = workloads::make_eembc("tblook");
  tua->reset(5);
  corunner->reset(6);
  Multicore machine(cfg, 5, *tua, {corunner.get()});
  TransferCounter counter;
  machine.set_bus_observer(&counter);
  // Every core finishes, so no grant is left latched but unstarted.
  const RunResult r = machine.run_all();
  ASSERT_TRUE(r.tua_finished);

  const std::uint64_t grants = r.bus_stats.totals().grants;
  EXPECT_GT(grants, 0u);
  EXPECT_EQ(counter.starts, GetParam().observed ? grants : 0u);

  const metrics::Value& budgets = r.record.at("credit.budget");
  ASSERT_EQ(budgets.size(), cfg.n_cores);
  for (MasterId m = 0; m < cfg.n_cores; ++m) {
    const CreditSlot credit = machine.credit_of(m);
    ASSERT_NE(credit.state, nullptr) << m;
    EXPECT_EQ(credit.state,
              &machine.segment_filter(machine.bus_port().home_segment(m))
                   ->state())
        << m;
    EXPECT_EQ(credit.state->budget_cycles(credit.slot), budgets[m]) << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Interconnects, MulticoreInterconnect,
    ::testing::Values(
        InterconnectCase{"nonsplit", "setup = cba\n", true},
        InterconnectCase{"split", "setup = cba\nbus = split\n", false},
        InterconnectCase{"segmented4", "setup = cba\ntopology = segmented:4\n",
                         true},
        InterconnectCase{"mesh2x2", "setup = cba\ntopology = mesh:2x2\n",
                         true}),
    [](const ::testing::TestParamInfo<InterconnectCase>& info) {
      return std::string(info.param.name);
    });

// --- SyntheticMaster ---------------------------------------------------------------

TEST(SyntheticMaster, IsolatedPeriodIsGapPlusArbPlusHold) {
  // gap 4, arbitration 1, hold 5 -> 10-cycle period (the paper's §II
  // isolated task: 1,000 requests -> 10,000 cycles).
  PlatformConfig cfg = PlatformConfig::paper(BusSetup::kRp);
  workloads::FixedOpsStream empty({});
  Multicore machine(cfg, 1, empty);  // platform for the bus; core idle

  SyntheticMasterConfig smc;
  smc.id = 1;  // use a free master slot... need a 4-master bus
  // Build directly on the machine's bus is awkward; use a dedicated rig
  // below instead. This test only checks config defaults.
  EXPECT_EQ(smc.hold, 5u);
  EXPECT_EQ(smc.gap, 4u);
}

/// A CampaignSpec running `kernel` on the given platform (helper for the
/// tests below).
[[nodiscard]] CampaignSpec make_spec(CampaignSpec::Protocol protocol,
                                     PlatformConfig config,
                                     std::string kernel, std::uint32_t runs,
                                     std::uint64_t seed) {
  CampaignSpec spec;
  spec.protocol = protocol;
  spec.config = std::move(config);
  spec.tua_factory = [kernel = std::move(kernel)]() {
    return workloads::make_eembc(kernel);
  };
  spec.runs = runs;
  spec.base_seed = seed;
  spec.retain_raw = true;  // these tests read the per-run series
  return spec;
}

TEST(ScenarioRunners, IsolationCampaignAggregates) {
  const CampaignResult r = run_campaign(
      make_spec(CampaignSpec::Protocol::kIsolation,
                PlatformConfig::paper(BusSetup::kRp), "canrdr", 5, 11));
  EXPECT_EQ(r.exec_time().count(), 5u);
  EXPECT_EQ(r.samples().size(), 5u);
  EXPECT_EQ(r.unfinished_runs, 0u);
  EXPECT_GT(r.exec_time().mean(), 0.0);
  EXPECT_EQ(r.aggregate.runs(), 5u);
}

TEST(ScenarioRunners, CampaignFoldsRunRecords) {
  // Every standard probe key reaches the aggregate, per-master keys at
  // the platform width, and derived views agree with the records.
  const CampaignResult r = run_campaign(
      make_spec(CampaignSpec::Protocol::kMaxContention,
                PlatformConfig::paper_wcet(BusSetup::kCba), "canrdr", 3, 11));
  EXPECT_EQ(r.aggregate.width("bus.occupancy_share"), 4u);
  EXPECT_EQ(r.aggregate.width("bus.grant_share"), 4u);
  EXPECT_EQ(r.aggregate.width("credit.budget"), 4u);
  EXPECT_TRUE(r.aggregate.has("fair.jain_occupancy"));
  EXPECT_TRUE(r.aggregate.has("fair.maxmin_grants"));
  const auto& jain = r.aggregate.element_stats("fair.jain_occupancy");
  EXPECT_GT(jain.mean(), 0.0);
  EXPECT_LE(jain.max(), 1.0);
  // Occupancy shares sum below 1 (arbitration cycles are nobody's).
  double share_sum = 0.0;
  for (std::size_t m = 0; m < 4; ++m) {
    share_sum += r.aggregate.element_stats("bus.occupancy_share", m).mean();
  }
  EXPECT_GT(share_sum, 0.5);
  EXPECT_LE(share_sum, 1.0 + 1e-12);
}

TEST(ScenarioRunners, CampaignIsReproducible) {
  const auto spec =
      make_spec(CampaignSpec::Protocol::kIsolation,
                PlatformConfig::paper(BusSetup::kCba), "tblook", 3, 42);
  const auto a = run_campaign(spec);
  const auto b = run_campaign(spec);
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples()[i], b.samples()[i]);
  }
}

TEST(ScenarioRunners, MaxContentionRequiresWcetMode) {
  EXPECT_THROW(
      (void)run_campaign(make_spec(CampaignSpec::Protocol::kMaxContention,
                                   PlatformConfig::paper(BusSetup::kCba),
                                   "canrdr", 1, 1)),
      std::invalid_argument);
}

/// A co-runner factory for the tests below.
[[nodiscard]] CampaignSpec::StreamFactory streaming(std::uint32_t gap) {
  return [gap]() { return std::make_unique<workloads::StreamingStream>(gap); };
}

TEST(ScenarioRunners, SpecRequiresTuaAndRejectsStrayCorunners) {
  CampaignSpec no_tua;
  no_tua.config = PlatformConfig::paper(BusSetup::kRp);
  EXPECT_THROW((void)run_campaign(no_tua), std::invalid_argument);
  std::vector<RunOutcome> window(1);
  EXPECT_THROW((void)run_campaign_slice(no_tua, 0, window),
               std::invalid_argument);

  // Real co-runners belong to the corun protocol only.
  auto iso = make_spec(CampaignSpec::Protocol::kIsolation,
                       PlatformConfig::paper(BusSetup::kRp), "canrdr", 1, 1);
  iso.corunner_factories = {streaming(0)};
  EXPECT_THROW((void)run_campaign(iso), std::invalid_argument);
  auto con = make_spec(CampaignSpec::Protocol::kMaxContention,
                       PlatformConfig::paper_wcet(BusSetup::kRp), "canrdr",
                       1, 1);
  con.corunner_factories = {streaming(0)};
  EXPECT_THROW((void)run_campaign(con), std::invalid_argument);
}

/// Bitwise equality over every key/element/run of two campaign
/// aggregates. Record::operator== cannot serve here: isolation runs make
/// fair.maxmin_* infinite by contract and NaN/inf break naive equality,
/// while bit patterns compare exactly.
void expect_same_aggregate(const metrics::Aggregator& a,
                           const metrics::Aggregator& b,
                           const std::string& where) {
  ASSERT_EQ(a.keys(), b.keys()) << where;
  for (const std::string& key : a.keys()) {
    ASSERT_EQ(a.width(key), b.width(key)) << where << ' ' << key;
    for (std::size_t e = 0; e < a.width(key); ++e) {
      const auto& sa = a.element_samples(key, e);
      const auto& sb = b.element_samples(key, e);
      ASSERT_EQ(sa.size(), sb.size()) << where << ' ' << key;
      for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(sa[i]),
                  std::bit_cast<std::uint64_t>(sb[i]))
            << where << ' ' << key << '[' << e << "] run " << i;
      }
    }
  }
}

/// The serial oracle the batched path is held to: per run, fresh streams
/// from the spec's factories reset from run_seed (machine seed, then one
/// stream seed for the TuA and one per co-runner), one Multicore::run(),
/// finished runs folded in run order.
[[nodiscard]] metrics::Aggregator serial_oracle(const CampaignSpec& spec) {
  PlatformConfig config = spec.config;
  if (spec.protocol == CampaignSpec::Protocol::kIsolation) {
    config.mode = PlatformMode::kOperation;
  }
  metrics::Aggregator oracle(
      metrics::Aggregator::Options{.retain_raw = true});
  for (std::uint32_t run = 0; run < spec.runs; ++run) {
    const std::uint64_t seed = run_seed(spec.base_seed, run);
    rng::SplitMix64 stream_seeds(seed);
    const std::unique_ptr<cpu::OpStream> tua = spec.tua_factory();
    tua->reset(stream_seeds.next());
    std::vector<std::unique_ptr<cpu::OpStream>> corunners;
    std::vector<cpu::OpStream*> corunner_ptrs;
    for (const CampaignSpec::StreamFactory& make : spec.corunner_factories) {
      corunners.push_back(make());
      corunners.back()->reset(stream_seeds.next());
      corunner_ptrs.push_back(corunners.back().get());
    }
    Multicore machine(config, seed, *tua, corunner_ptrs);
    const RunResult r = machine.run(spec.max_cycles);
    if (r.tua_finished) oracle.add(r.record);
  }
  return oracle;
}

/// run_campaign over `spec` must reproduce the serial oracle bit for bit
/// at every batch size and thread count.
void expect_batched_matches_oracle(CampaignSpec spec) {
  const metrics::Aggregator oracle = serial_oracle(spec);
  ASSERT_EQ(oracle.runs(), spec.runs);
  for (const std::uint32_t batch : {1u, 3u, 8u}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      spec.batch = batch;
      spec.threads = threads;
      const auto batched = run_campaign(spec);
      EXPECT_EQ(batched.unfinished_runs, 0u);
      expect_same_aggregate(batched.aggregate, oracle,
                            "batch=" + std::to_string(batch) +
                                " threads=" + std::to_string(threads));
    }
  }
}

TEST(ScenarioRunners, FactoryFormMatchesSharedStreamForm) {
  // Isolation on CBA: the batched lanes share one SoA credit arena, the
  // oracle's machines own their credit counters.
  expect_batched_matches_oracle(
      make_spec(CampaignSpec::Protocol::kIsolation,
                PlatformConfig::paper(BusSetup::kCba), "cacheb", 5, 99));
}

TEST(ScenarioRunners, BatchedCorunMatchesSharedStreamForm) {
  // Real co-runners from per-run factory streams on the CBA bus.
  auto spec = make_spec(CampaignSpec::Protocol::kCorun,
                        PlatformConfig::paper(BusSetup::kCba), "cacheb", 4,
                        99);
  spec.corunner_factories = {streaming(0), streaming(4)};
  expect_batched_matches_oracle(spec);
}

TEST(ScenarioRunners, InstrumentedCampaignMatchesSerialOracle) {
  // The instrument hook forces single-lane batches; every run is still
  // hooked once and the outcome is the oracle's.
  auto spec = make_spec(CampaignSpec::Protocol::kMaxContention,
                        PlatformConfig::paper_wcet(BusSetup::kCba), "canrdr",
                        5, 7);
  spec.batch = 8;
  std::vector<std::uint32_t> hooked;
  spec.instrument = [&hooked](std::uint32_t run, Multicore& machine) {
    hooked.push_back(run);
    EXPECT_EQ(machine.real_cores(), 1u);
  };
  const auto instrumented = run_campaign(spec);
  EXPECT_EQ(hooked, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  expect_same_aggregate(instrumented.aggregate, serial_oracle(spec),
                        "instrumented");
}

TEST(ScenarioRunners, RunCampaignSliceWindowsAgree) {
  // Slices are run_campaign's unit of work; a slice starting at run k
  // must reproduce runs k.. of the full campaign (seeds by run index).
  auto spec = make_spec(CampaignSpec::Protocol::kIsolation,
                        PlatformConfig::paper(BusSetup::kRp), "canrdr", 6,
                        1234);
  const auto full = run_campaign(spec);
  std::vector<RunOutcome> window(3);
  run_campaign_slice(spec, 2, window);
  for (std::size_t i = 0; i < window.size(); ++i) {
    ASSERT_TRUE(window[i].finished);
    EXPECT_EQ(window[i].record.at("tua.cycles").scalar(),
              full.samples()[2 + i]);
  }
}

TEST(ScenarioRunners, FactoryFormContractErrors) {
  // Factories must build a stream, a campaign has at least one run, and
  // a slice stays inside the campaign.
  auto null_tua = make_spec(CampaignSpec::Protocol::kIsolation,
                            PlatformConfig::paper(BusSetup::kRp), "canrdr",
                            1, 1);
  null_tua.tua_factory = []() { return std::unique_ptr<cpu::OpStream>(); };
  EXPECT_THROW((void)run_campaign(null_tua), std::invalid_argument);

  auto null_corunner = make_spec(CampaignSpec::Protocol::kCorun,
                                 PlatformConfig::paper(BusSetup::kRp),
                                 "canrdr", 2, 1);
  null_corunner.corunner_factories = {
      []() { return std::unique_ptr<cpu::OpStream>(); }};
  null_corunner.threads = 2;
  EXPECT_THROW((void)run_campaign(null_corunner), std::invalid_argument);

  auto no_runs = make_spec(CampaignSpec::Protocol::kIsolation,
                           PlatformConfig::paper(BusSetup::kRp), "canrdr", 0,
                           1);
  EXPECT_THROW((void)run_campaign(no_runs), std::invalid_argument);

  auto two_runs = make_spec(CampaignSpec::Protocol::kIsolation,
                            PlatformConfig::paper(BusSetup::kRp), "canrdr",
                            2, 1);
  std::vector<RunOutcome> past_the_end(3);
  EXPECT_THROW((void)run_campaign_slice(two_runs, 0, past_the_end),
               std::invalid_argument);
}

TEST(ScenarioRunners, ContentionSlowsTheTuaDown) {
  const auto iso = run_campaign(
      make_spec(CampaignSpec::Protocol::kIsolation,
                PlatformConfig::paper(BusSetup::kRp), "cacheb", 3, 77));
  const auto con = run_campaign(
      make_spec(CampaignSpec::Protocol::kMaxContention,
                PlatformConfig::paper_wcet(BusSetup::kRp), "cacheb", 3, 77));
  EXPECT_GT(slowdown(con, iso), 1.2);
}

TEST(ScenarioRunners, SlowdownOfSelfIsOne) {
  const auto iso = run_campaign(
      make_spec(CampaignSpec::Protocol::kIsolation,
                PlatformConfig::paper(BusSetup::kRp), "canrdr", 2, 0xC0FFEE));
  EXPECT_DOUBLE_EQ(slowdown(iso, iso), 1.0);
}

// --- split-protocol platform --------------------------------------------------------

TEST(SplitPlatform, IsolationRunFinishes) {
  auto tua = workloads::make_eembc("canrdr");
  PlatformConfig cfg = PlatformConfig::paper(BusSetup::kRp);
  cfg.bus_protocol = BusProtocol::kSplit;
  tua->reset(2);
  Multicore machine(cfg, 2, *tua);
  const RunResult r = machine.run();
  EXPECT_TRUE(r.tua_finished);
  EXPECT_GT(r.bus_stats.master[0].completions, 0u);
}

TEST(SplitPlatform, SplitNoSlowerThanNonSplitInIsolation) {
  // With one core there is no pipelining benefit, but end-to-end service
  // times are matched by construction: the two protocols should land
  // within a few percent of each other.
  PlatformConfig nonsplit = PlatformConfig::paper(BusSetup::kRp);
  PlatformConfig split = nonsplit;
  split.bus_protocol = BusProtocol::kSplit;
  const auto a = run_campaign(make_spec(CampaignSpec::Protocol::kIsolation,
                                        nonsplit, "tblook", 3, 21));
  const auto b = run_campaign(make_spec(CampaignSpec::Protocol::kIsolation,
                                        split, "tblook", 3, 21));
  EXPECT_NEAR(b.exec_time().mean() / a.exec_time().mean(), 1.0, 0.05);
}

TEST(SplitPlatform, WcetModeWorks) {
  auto tua = workloads::make_eembc("canrdr");
  PlatformConfig cfg = PlatformConfig::paper_wcet(BusSetup::kCba);
  cfg.bus_protocol = BusProtocol::kSplit;
  tua->reset(3);
  Multicore machine(cfg, 3, *tua);
  const RunResult r = machine.run();
  EXPECT_TRUE(r.tua_finished);
  EXPECT_EQ(r.credit_underflows, 0u);
}

TEST(SplitPlatform, DeterministicPerSeed) {
  auto tua = workloads::make_eembc("cacheb");
  PlatformConfig cfg = PlatformConfig::paper(BusSetup::kCba);
  cfg.bus_protocol = BusProtocol::kSplit;
  tua->reset(7);
  Multicore a(cfg, 9, *tua);
  const Cycle ta = a.run().tua_cycles;
  tua->reset(7);
  Multicore b(cfg, 9, *tua);
  EXPECT_EQ(ta, b.run().tua_cycles);
}

// --- DRAM bank model on the platform ---------------------------------------------------

TEST(DramPlatform, RunsAndSpeedsUpStreaming) {
  // matrix streams sequentially: open rows make many misses cheaper than
  // the flat 28-cycle latency, so execution gets faster, never slower.
  PlatformConfig flat = PlatformConfig::paper(BusSetup::kRp);
  PlatformConfig banked = flat;
  banked.dram = mem::DramConfig{};
  const auto a = run_campaign(make_spec(CampaignSpec::Protocol::kIsolation,
                                        flat, "matrix", 3, 31));
  const auto b = run_campaign(make_spec(CampaignSpec::Protocol::kIsolation,
                                        banked, "matrix", 3, 31));
  EXPECT_LT(b.exec_time().mean(), a.exec_time().mean());
  EXPECT_GT(b.exec_time().mean(), 0.5 * a.exec_time().mean());
}

TEST(DramPlatform, NoCreditUnderflowWithCba) {
  // Bank-model worst case (28) keeps MaxL = 56 a valid upper bound.
  PlatformConfig cfg = PlatformConfig::paper_wcet(BusSetup::kCba);
  cfg.dram = mem::DramConfig{};
  const auto r = run_campaign(make_spec(
      CampaignSpec::Protocol::kMaxContention, cfg, "matrix", 2, 0xC0FFEE));
  EXPECT_EQ(r.credit_underflows(), 0u);
}

TEST(DramPlatform, ValidationRejectsBadBankConfig) {
  PlatformConfig cfg = PlatformConfig::paper(BusSetup::kRp);
  cfg.dram = mem::DramConfig{};
  cfg.dram->banks = 5;  // not a power of two
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// --- config files -----------------------------------------------------------------------

TEST(ConfigFile, ParsesFullExample) {
  std::istringstream in(
      "# example\n"
      "cores = 8\n"
      "arbiter = drr   # deficit round robin\n"
      "setup = cba\n"
      "mode = wcet\n"
      "bus = split\n"
      "dram = banked\n"
      "l1_bytes = 8192\n"
      "l2_bytes = 65536\n"
      "store_buffer = 4\n"
      "tdma_slot = 56\n");
  const PlatformConfig cfg = parse_config(in);
  EXPECT_EQ(cfg.n_cores, 8u);
  EXPECT_EQ(cfg.arbiter, bus::ArbiterKind::kDeficitRoundRobin);
  ASSERT_TRUE(cfg.cba.has_value());
  EXPECT_EQ(cfg.cba->n_masters, 8u);
  EXPECT_EQ(cfg.mode, PlatformMode::kWcetEstimation);
  EXPECT_EQ(cfg.contender_policy, core::ContenderPolicy::kCompLatch);
  EXPECT_EQ(cfg.bus_protocol, BusProtocol::kSplit);
  EXPECT_TRUE(cfg.dram.has_value());
  EXPECT_EQ(cfg.core.dl1.size_bytes, 8192u);
  EXPECT_EQ(cfg.l2_partition.size_bytes, 65536u);
  EXPECT_EQ(cfg.core.store_buffer_depth, 4u);
}

TEST(ConfigFile, DefaultsAreThePaperPlatform) {
  std::istringstream in("");
  const PlatformConfig cfg = parse_config(in);
  EXPECT_EQ(cfg.n_cores, 4u);
  EXPECT_EQ(cfg.arbiter, bus::ArbiterKind::kRandomPermutation);
  EXPECT_FALSE(cfg.cba.has_value());  // setup defaults to rp
  EXPECT_EQ(cfg.mode, PlatformMode::kOperation);
}

TEST(ConfigFile, HcbaScalesWithCoreCount) {
  std::istringstream in("cores = 3\nsetup = hcba\n");
  const PlatformConfig cfg = parse_config(in);
  ASSERT_TRUE(cfg.cba.has_value());
  EXPECT_DOUBLE_EQ(cfg.cba->bandwidth_share(0), 0.5);
  EXPECT_DOUBLE_EQ(cfg.cba->bandwidth_share(1), 0.25);  // (1-0.5)/2
}

TEST(ConfigFile, UnknownKeyThrowsWithLineNumber) {
  std::istringstream in("cores = 4\nbogus_key = 7\n");
  try {
    (void)parse_config(in);
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bogus_key"), std::string::npos);
  }
}

TEST(ConfigFile, NumberErrorsNameKeyAndLine) {
  const auto expect_error = [](const std::string& text,
                               const std::string& fragment) {
    std::istringstream in(text);
    try {
      (void)parse_config(in);
      FAIL() << "should have thrown for: " << text;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      EXPECT_NE(what.find(fragment), std::string::npos) << what;
    }
  };
  // stoull would silently accept the "123" prefix of "123abc".
  expect_error("cores = 4\nl2_bytes = 123abc\n", "trailing characters");
  // ... and silently wrap "-1" to 2^64-1.
  expect_error("cores = 4\ntdma_slot = -1\n", "bad number");
  expect_error("cores = 4\nmaxl = 99999999999999999999999\n",
               "out of range");
  // Values that fit uint64 but overflow the uint32 field must not be
  // silently truncated.
  expect_error("cores = 4\nl1_bytes = 4294967296\n", "out of range");
}

TEST(ConfigFile, ConfigKeysMatchesTheParser) {
  // Pins config_keys() to parse_config's dispatch: every advertised key
  // must parse with a representative value.
  const std::map<std::string, std::string> sample = {
      {"cores", "4"},          {"arbiter", "rr"},    {"setup", "cba"},
      {"mode", "wcet"},        {"bus", "split"},     {"dram", "banked"},
      {"l1_bytes", "8192"},    {"l2_bytes", "65536"},
      {"store_buffer", "2"},   {"maxl", "56"},       {"tdma_slot", "56"},
      {"topology", "segmented:2"}, {"bridge_hold", "5"},
      {"bridge_latency", "2"}, {"seg_stripe", "4096"},
      {"bridge_depth", "4"},   {"controller", "static"}};
  for (const auto key : config_keys()) {
    const auto it = sample.find(std::string(key));
    ASSERT_NE(it, sample.end()) << "no sample value for key " << key;
    std::istringstream in(it->first + " = " + it->second + "\n");
    EXPECT_NO_THROW((void)parse_config(in)) << key;
  }
  EXPECT_EQ(config_keys().size(), sample.size());
}

TEST(ConfigFile, ParseConfigUintAcceptsBases) {
  EXPECT_EQ(parse_config_uint("56", "maxl", 1), 56u);
  EXPECT_EQ(parse_config_uint("0x38", "maxl", 1), 56u);
  EXPECT_THROW((void)parse_config_uint("", "maxl", 1),
               std::invalid_argument);
  EXPECT_THROW((void)parse_config_uint(" 56", "maxl", 1),
               std::invalid_argument);
}

TEST(ConfigFile, MalformedValueThrows) {
  std::istringstream bad_number("cores = four\n");
  EXPECT_THROW((void)parse_config(bad_number), std::invalid_argument);
  std::istringstream no_equals("cores 4\n");
  EXPECT_THROW((void)parse_config(no_equals), std::invalid_argument);
  std::istringstream bad_enum("setup = turbo\n");
  EXPECT_THROW((void)parse_config(bad_enum), std::invalid_argument);
}

TEST(ConfigFile, RoundTripPreservesSemantics) {
  PlatformConfig original = PlatformConfig::paper_wcet(BusSetup::kCba);
  original.bus_protocol = BusProtocol::kSplit;
  original.dram = mem::DramConfig{};
  std::ostringstream out;
  write_config(out, original);
  std::istringstream in(out.str());
  const PlatformConfig back = parse_config(in);
  EXPECT_EQ(back.n_cores, original.n_cores);
  EXPECT_EQ(back.arbiter, original.arbiter);
  EXPECT_EQ(back.mode, original.mode);
  EXPECT_EQ(back.bus_protocol, original.bus_protocol);
  EXPECT_EQ(back.dram.has_value(), original.dram.has_value());
  EXPECT_EQ(back.cba.has_value(), original.cba.has_value());
}

TEST(ConfigFile, ParsedConfigActuallyRuns) {
  std::istringstream in("cores = 2\nsetup = cba\nmode = wcet\n");
  const PlatformConfig cfg = parse_config(in);
  auto tua = workloads::make_eembc("canrdr");
  tua->reset(5);
  Multicore machine(cfg, 5, *tua);
  EXPECT_TRUE(machine.run().tua_finished);
}

TEST(ConfigFile, MissingFileThrows) {
  EXPECT_THROW((void)load_config("/nonexistent/cbus.cfg"),
               std::invalid_argument);
}

// --- streaming aggregation ------------------------------------------------------

/// Serialized digest bytes of a streaming campaign aggregate.
[[nodiscard]] std::string digest_bytes(const metrics::Aggregator& agg) {
  std::ostringstream out(std::ios::binary);
  agg.serialize(out);
  return out.str();
}

TEST(StreamingCampaign, DigestIsBitIdenticalAcrossBatchAndThreads) {
  // The streaming fold merges slice digests in whatever order worker
  // threads finish; exact mergeability must hide that entirely. Every
  // batch x thread combination lands on the same digest bytes.
  auto make = [](std::uint32_t batch, std::uint32_t threads) {
    auto spec = make_spec(CampaignSpec::Protocol::kMaxContention,
                                  PlatformConfig::paper_wcet(BusSetup::kCba),
                                  "canrdr", 12, 77);
    spec.retain_raw = false;
    spec.batch = batch;
    spec.threads = threads;
    return run_campaign(spec);
  };
  const auto reference = make(1, 1);
  EXPECT_FALSE(reference.aggregate.retains_raw());
  const std::string expected = digest_bytes(reference.aggregate);
  for (const std::uint32_t batch : {1u, 3u, 8u}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      const auto got = make(batch, threads);
      EXPECT_EQ(digest_bytes(got.aggregate), expected)
          << "batch=" << batch << " threads=" << threads;
      EXPECT_EQ(got.unfinished_runs, reference.unfinished_runs);
    }
  }
}

TEST(StreamingCampaign, StatsMatchRawRetentionBitForBit) {
  // Streaming derives mean/min/max/stddev from exact sums; the raw
  // mode's OnlineStats folds the same run-ordered series. The derived
  // views must agree to the last bit on every key and element.
  auto spec = make_spec(CampaignSpec::Protocol::kMaxContention,
                                PlatformConfig::paper_wcet(BusSetup::kCba),
                                "canrdr", 10, 31);
  spec.retain_raw = false;
  const auto streamed = run_campaign(spec);
  spec.retain_raw = true;
  const auto raw = run_campaign(spec);

  ASSERT_EQ(streamed.aggregate.keys(), raw.aggregate.keys());
  for (const std::string& key : raw.aggregate.keys()) {
    ASSERT_EQ(streamed.aggregate.width(key), raw.aggregate.width(key));
    for (std::size_t e = 0; e < raw.aggregate.width(key); ++e) {
      const auto rs = raw.aggregate.element_stats(key, e);
      const auto ss = streamed.aggregate.element_stats(key, e);
      EXPECT_EQ(rs.count(), ss.count()) << key;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rs.min()),
                std::bit_cast<std::uint64_t>(ss.min()))
          << key << '[' << e << ']';
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rs.max()),
                std::bit_cast<std::uint64_t>(ss.max()))
          << key << '[' << e << ']';
      // Welford means/variances round differently along the fold path,
      // so the cross-mode contract there is closeness, not bit equality
      // -- the exact sums are the BETTER answer.
      EXPECT_NEAR(rs.mean(), ss.mean(),
                  1e-9 * (1.0 + std::abs(rs.mean())))
          << key << '[' << e << ']';
      if (std::isfinite(rs.variance())) {
        EXPECT_NEAR(rs.variance(), ss.variance(),
                    1e-6 * (1.0 + std::abs(rs.variance())))
            << key << '[' << e << ']';
      }
    }
  }
  // Raw mode kept the series, streaming mode refuses to invent one.
  EXPECT_EQ(raw.samples().size(), 10u);
  EXPECT_TRUE(streamed.samples().empty());
}

TEST(StreamingCampaign, PeakRecordCountIsIndependentOfRunCount) {
  // The memory contract behind million-run campaigns: streaming keeps
  // O(batch * threads) records alive at once, raw keeps O(runs). Record
  // instances are census-counted, so measure the peak directly.
  auto run_with = [](std::uint32_t runs, bool retain) {
    auto spec = make_spec(CampaignSpec::Protocol::kIsolation,
                                  PlatformConfig::paper(BusSetup::kRp),
                                  "canrdr", runs, 3);
    spec.retain_raw = retain;
    spec.batch = 4;
    spec.threads = 1;
    metrics::Record::reset_peak_live_count();
    const auto result = run_campaign(spec);
    EXPECT_EQ(result.aggregate.runs(), runs);
    return metrics::Record::peak_live_count();
  };

  const std::uint64_t stream_small = run_with(20, false);
  const std::uint64_t stream_large = run_with(160, false);
  // Constant head-room: the peak may wiggle by a few scratch records
  // but must not scale with the 8x run-count growth.
  EXPECT_LE(stream_large, stream_small + 4);

  const std::uint64_t raw_large = run_with(160, true);
  EXPECT_GE(raw_large, 160u);  // one retained record per run
  EXPECT_GT(raw_large, stream_large * 4);
}

}  // namespace
}  // namespace cbus::platform
