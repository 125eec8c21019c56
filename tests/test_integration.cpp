// Integration tests: whole-system behaviours the paper reports, checked
// end to end -- the §II illustrative example arithmetic, Figure-1-style
// orderings between configurations, WCET-mode dominance, and the MBPTA
// pipeline on real platform samples.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bus/bus.hpp"
#include "bus/round_robin.hpp"
#include "core/credit_filter.hpp"
#include "mbpta/pwcet.hpp"
#include "platform/multicore.hpp"
#include "platform/scenarios.hpp"
#include "platform/synthetic_master.hpp"
#include "sim/kernel.hpp"
#include "workloads/eembc_like.hpp"
#include "workloads/streaming.hpp"

namespace cbus {
namespace {

using platform::BusSetup;
using platform::CampaignSpec;
using platform::PlatformConfig;
using platform::SyntheticMaster;
using platform::SyntheticMasterConfig;

/// Shorthand: run one campaign of `kernel` over the paper platform, with
/// `streaming_corunners` back-to-back streaming co-runners (kCorun).
[[nodiscard]] platform::CampaignResult campaign(
    CampaignSpec::Protocol protocol, PlatformConfig config,
    const std::string& kernel, std::uint32_t runs, std::uint64_t seed,
    std::uint32_t streaming_corunners = 0) {
  CampaignSpec spec;
  spec.protocol = protocol;
  spec.config = std::move(config);
  spec.tua_factory = [kernel]() { return workloads::make_eembc(kernel); };
  spec.corunner_factories.assign(streaming_corunners, []() {
    return std::make_unique<workloads::StreamingStream>(0);
  });
  spec.runs = runs;
  spec.base_seed = seed;
  spec.retain_raw = true;  // integration tests read the per-run series
  return run_campaign(spec);
}

/// Raw bus rig for closed-form experiments: synthetic masters, no caches.
struct RawRig {
  explicit RawRig(std::optional<core::CbaConfig> cba = std::nullopt)
      : arbiter(4), bus(bus::BusConfig{4, true}, arbiter, null_slave) {
    if (cba.has_value()) {
      filter = std::make_unique<core::CreditFilter>(*cba);
      bus.set_filter(filter.get());
    }
  }

  SyntheticMaster& add_master(MasterId id, Cycle hold, std::uint64_t requests,
                              std::uint32_t gap) {
    SyntheticMasterConfig cfg;
    cfg.id = id;
    cfg.hold = hold;
    cfg.requests = requests;
    cfg.gap = gap;
    masters.push_back(std::make_unique<SyntheticMaster>(cfg, bus));
    kernel.add(*masters.back());
    return *masters.back();
  }

  void finalize() { kernel.add(bus); }

  class NullSlave final : public bus::BusSlave {
   public:
    Cycle begin_transaction(const bus::BusRequest&, Cycle) override {
      CBUS_ASSERT(false);  // all requests must use forced_hold
      return 1;
    }
  } null_slave;

  bus::RoundRobinArbiter arbiter;
  bus::NonSplitBus bus;
  std::unique_ptr<core::CreditFilter> filter;
  std::vector<std::unique_ptr<SyntheticMaster>> masters;
  sim::Kernel kernel;
};

// --- E1: the §II illustrative example -------------------------------------------

TEST(IllustrativeExample, IsolationIsTenThousandCycles) {
  // "If the task under analysis runs for 10,000 cycles in isolation out of
  //  which 6,000 cycles are spent accessing the bus (1,000 requests)":
  // 1,000 x (4 compute + 1 arbitration + 5 hold) = 10,000.
  RawRig rig;
  auto& tua = rig.add_master(0, 5, 1000, 4);
  rig.finalize();
  ASSERT_TRUE(rig.kernel.run_until([&]() { return tua.done(); }, 100'000));
  EXPECT_NEAR(static_cast<double>(tua.finish_cycle()), 10'000.0, 10.0);
}

TEST(IllustrativeExample, RequestFairGivesNearTenfoldSlowdown) {
  // Request-fair arbitration vs three streaming 28-cycle contenders: each
  // TuA request waits for one transaction from every contender. The
  // paper's closed form (waits fully serialized after the compute gap)
  // gives 94,000; in the cycle-accurate model the 4-cycle gap overlaps
  // the head of the contender burst, landing at 89,000 (8.9x).
  RawRig rig;
  auto& tua = rig.add_master(0, 5, 1000, 4);
  rig.add_master(1, 28, 0, 0);
  rig.add_master(2, 28, 0, 0);
  rig.add_master(3, 28, 0, 0);
  rig.finalize();
  ASSERT_TRUE(rig.kernel.run_until([&]() { return tua.done(); }, 500'000));
  const auto t = static_cast<double>(tua.finish_cycle());
  EXPECT_NEAR(t, 89'000.0, 2'500.0);
}

TEST(IllustrativeExample, CbaCutsTheSlowdown) {
  // Same scenario with the CBA filter: the TuA recovers a large part of
  // the bandwidth the request-fair bus handed to the long requests.
  // (The paper's idealized cycle-fair arithmetic gives 28,000; the
  // mechanism's eligibility latency -- a core must re-fill its budget
  // completely before re-arbitrating -- lands the cycle-accurate model at
  // ~56,000, still 1.6x better than request-fair and, crucially, bounded.)
  RawRig rig(core::CbaConfig::homogeneous(4, 56));
  auto& tua = rig.add_master(0, 5, 1000, 4);
  rig.add_master(1, 28, 0, 0);
  rig.add_master(2, 28, 0, 0);
  rig.add_master(3, 28, 0, 0);
  rig.finalize();
  ASSERT_TRUE(rig.kernel.run_until([&]() { return tua.done(); }, 500'000));
  const auto t = static_cast<double>(tua.finish_cycle());
  EXPECT_GT(t, 45'000.0);
  EXPECT_LT(t, 65'000.0);
}

TEST(IllustrativeExample, CbaSlowdownIndependentOfContenderLength) {
  // The paper's headline: under request-fair policies the TuA's slowdown
  // grows without bound in the contenders' request length; under CBA it
  // is capped by the credit mechanism. Double the contender length and
  // compare.
  const auto run_with = [](std::optional<core::CbaConfig> cba,
                           Cycle contender_hold) {
    RawRig rig(std::move(cba));
    auto& tua = rig.add_master(0, 5, 1000, 4);
    rig.add_master(1, contender_hold, 0, 0);
    rig.add_master(2, contender_hold, 0, 0);
    rig.add_master(3, contender_hold, 0, 0);
    rig.finalize();
    EXPECT_TRUE(rig.kernel.run_until([&]() { return tua.done(); }, 900'000));
    return static_cast<double>(tua.finish_cycle());
  };

  const double rf_28 = run_with(std::nullopt, 28);
  const double rf_56 = run_with(std::nullopt, 56);
  // Request-fair: slowdown scales with contender hold (89k -> 173k).
  EXPECT_GT(rf_56, rf_28 * 1.7);

  const double cba_28 = run_with(core::CbaConfig::homogeneous(4, 56), 28);
  const double cba_56 = run_with(core::CbaConfig::homogeneous(4, 56), 56);
  // CBA: the credit throttle caps every contender at 1/N occupancy, so
  // doubling their request length only adds residual blocking (a single
  // in-flight transaction), far from doubling the TuA's time.
  EXPECT_LT(cba_56 / cba_28, 1.45);
  EXPECT_LT(cba_56, rf_56 * 0.50);
}

TEST(IllustrativeExample, CbaUpperBoundsEveryMasterAtQuarter) {
  // The hard CBA guarantee is an upper bound: nobody exceeds 1/N of the
  // cycles. The short-request master additionally pays an eligibility
  // latency (it must refill completely between grants, and its waiting
  // time at the saturated budget is forfeited), so its achieved share
  // sits below 1/4 -- the effect H-CBA method 1 (cap boost) addresses.
  RawRig rig(core::CbaConfig::homogeneous(4, 56));
  rig.add_master(0, 5, 0, 0);   // greedy short requester
  rig.add_master(1, 28, 0, 0);  // greedy long requesters
  rig.add_master(2, 28, 0, 0);
  rig.add_master(3, 28, 0, 0);
  rig.finalize();
  rig.kernel.run(100'000);
  const auto& s = rig.bus.statistics();
  for (MasterId m = 0; m < 4; ++m) {
    EXPECT_LE(s.occupancy_share(m), 0.26) << "master " << m;
  }
  for (MasterId m = 1; m < 4; ++m) {
    EXPECT_GE(s.occupancy_share(m), 0.22) << "master " << m;
  }
  EXPECT_GE(s.occupancy_share(0), 0.05);
}

TEST(IllustrativeExample, CapBoostRestoresShortRequesterShare) {
  // H-CBA method 1: letting the short-request master bank credit above
  // the eligibility threshold (cap = 4x) lets it burst back-to-back and
  // recovers its quarter of the bandwidth.
  RawRig rig(core::CbaConfig::with_cap_boost(
      core::CbaConfig::homogeneous(4, 56), 0, 4));
  rig.add_master(0, 5, 0, 0);
  rig.add_master(1, 28, 0, 0);
  rig.add_master(2, 28, 0, 0);
  rig.add_master(3, 28, 0, 0);
  rig.finalize();
  rig.kernel.run(100'000);
  EXPECT_GE(rig.bus.statistics().occupancy_share(0), 0.19);
  EXPECT_LE(rig.bus.statistics().occupancy_share(0), 0.27);
}

TEST(IllustrativeExample, WithoutCbaLongRequestsHogBandwidth) {
  // The paper's §I example: 5-cycle vs 45-cycle alternating requests give
  // 10% vs 90% occupancy under slot-fair arbitration.
  RawRig rig;
  rig.add_master(0, 5, 0, 0);
  rig.add_master(1, 45, 0, 0);
  rig.finalize();
  rig.kernel.run(100'000);
  const auto& s = rig.bus.statistics();
  EXPECT_NEAR(s.occupancy_share(0), 0.10, 0.02);
  EXPECT_NEAR(s.occupancy_share(1), 0.90, 0.02);
  // while grant counts are (slot-)fair:
  EXPECT_NEAR(s.grant_share(0), 0.5, 0.02);
}

TEST(IllustrativeExample, HcbaShiftsBandwidthToTua) {
  // H-CBA method 2 at the paper's evaluation point (TuA 1/2, others 1/6).
  // The 1/6 contender cap is hit exactly; the TuA's achieved share sits
  // between the homogeneous quarter and its configured half (eligibility
  // latency again), roughly doubling its homogeneous-CBA share.
  RawRig rig(core::CbaConfig::paper_hcba(56));
  rig.add_master(0, 56, 0, 0);
  rig.add_master(1, 28, 0, 0);
  rig.add_master(2, 28, 0, 0);
  rig.add_master(3, 28, 0, 0);
  rig.finalize();
  rig.kernel.run(200'000);
  const auto& s = rig.bus.statistics();
  EXPECT_GE(s.occupancy_share(0), 0.30);
  EXPECT_LE(s.occupancy_share(0), 0.52);
  EXPECT_LE(s.occupancy_share(1), 1.0 / 6.0 + 0.01);
  EXPECT_GE(s.occupancy_share(1), 1.0 / 6.0 - 0.03);
  // The TuA clearly outranks every contender.
  EXPECT_GT(s.occupancy_share(0), 1.8 * s.occupancy_share(1));
}

// --- Figure-1-style orderings on the full platform --------------------------------

TEST(Figure1Orderings, CbaCutsContentionSlowdownForMatrix) {
  const auto iso = campaign(CampaignSpec::Protocol::kIsolation,
                            PlatformConfig::paper(BusSetup::kRp), "matrix", 3,
                            2017);
  const auto rp_con = campaign(CampaignSpec::Protocol::kMaxContention,
                               PlatformConfig::paper_wcet(BusSetup::kRp),
                               "matrix", 3, 2017);
  const auto cba_con = campaign(CampaignSpec::Protocol::kMaxContention,
                                PlatformConfig::paper_wcet(BusSetup::kCba),
                                "matrix", 3, 2017);

  const double s_rp = platform::slowdown(rp_con, iso);
  const double s_cba = platform::slowdown(cba_con, iso);
  EXPECT_GT(s_rp, s_cba + 0.4) << "CBA must cut maximum-contention slowdown";
  EXPECT_GT(s_rp, 2.5);   // matrix suffers badly under RP (paper: 3.34x)
  EXPECT_LT(s_rp, 4.0);
  EXPECT_LT(s_cba, 2.6);  // and is tamed by CBA (paper: <= 2.34x)
  EXPECT_GT(s_cba, 1.4);
}

TEST(Figure1Orderings, HcbaNoWorseThanCbaForTua) {
  const auto cba_con = campaign(CampaignSpec::Protocol::kMaxContention,
                                PlatformConfig::paper_wcet(BusSetup::kCba),
                                "matrix", 3, 2018);
  const auto hcba_con = campaign(
      CampaignSpec::Protocol::kMaxContention,
      PlatformConfig::paper_wcet(BusSetup::kHcba), "matrix", 3, 2018);
  EXPECT_LE(hcba_con.exec_time().mean(), cba_con.exec_time().mean() * 1.05);
}

TEST(Figure1Orderings, CbaIsolationOverheadIsSmall) {
  const auto rp_iso = campaign(CampaignSpec::Protocol::kIsolation,
                               PlatformConfig::paper(BusSetup::kRp), "tblook",
                               3, 2019);
  const auto cba_iso = campaign(CampaignSpec::Protocol::kIsolation,
                                PlatformConfig::paper(BusSetup::kCba), "tblook",
                                3, 2019);
  const double overhead = platform::slowdown(cba_iso, rp_iso);
  EXPECT_LT(overhead, 1.25) << "CBA in isolation should cost little";
  EXPECT_GE(overhead, 0.9);
}

TEST(Figure1Orderings, NoCreditUnderflowOnPaperPlatform) {
  const auto r = campaign(CampaignSpec::Protocol::kMaxContention,
                          PlatformConfig::paper_wcet(BusSetup::kCba), "cacheb",
                          2, 0xC0FFEE);
  EXPECT_EQ(r.credit_underflows(), 0u)
      << "MaxL = 56 must cover every transaction";
}

TEST(Figure1Orderings, CbaEqualisesOccupancyUnderMaxContention) {
  // The record pipeline surfaces the paper's core claim directly: with
  // CBA engaged, per-master occupancy cycles are near-equal (Jain -> 1)
  // even though the TuA's requests are short and the contenders' long.
  const auto cba = campaign(CampaignSpec::Protocol::kMaxContention,
                            PlatformConfig::paper_wcet(BusSetup::kCba),
                            "cacheb", 3, 2020);
  EXPECT_GT(cba.aggregate.element_stats("fair.jain_occupancy").mean(),
            0.85);
}

// --- WCET-mode dominance ------------------------------------------------------------

TEST(WcetMode, BoundsOperationModeContention) {
  // The WCET-estimation protocol must produce contention at least as bad
  // as real streaming co-runners (that is its purpose, §III-B).
  const auto op_con = campaign(CampaignSpec::Protocol::kCorun,
                               PlatformConfig::paper(BusSetup::kCba), "cacheb",
                               3, 4, 3);
  const auto wcet_con = campaign(CampaignSpec::Protocol::kMaxContention,
                                 PlatformConfig::paper_wcet(BusSetup::kCba),
                                 "cacheb", 3, 4);
  EXPECT_GE(wcet_con.exec_time().mean(), 0.95 * op_con.exec_time().mean());
}

// --- MBPTA end-to-end ----------------------------------------------------------------

TEST(MbptaPipeline, PwcetBoundsObservedOperation) {
  const auto wcet_runs = campaign(
      CampaignSpec::Protocol::kMaxContention,
      PlatformConfig::paper_wcet(BusSetup::kCba), "canrdr", 60, 5);

  mbpta::MbptaConfig mcfg;
  mcfg.block_size = 5;
  const auto analysis = mbpta::analyze(wcet_runs.samples(), mcfg);

  // The pWCET curve at 1e-9 must be above the maximum WCET-mode
  // observation itself.
  EXPECT_GT(analysis.curve[2].wcet_estimate, analysis.observed_max * 0.999);

  // ... and above anything seen in operation mode with real contenders.
  const auto op = campaign(CampaignSpec::Protocol::kCorun,
                           PlatformConfig::paper(BusSetup::kCba), "canrdr", 10,
                           6, 3);
  EXPECT_GT(analysis.curve[2].wcet_estimate, op.exec_time().max());
}

}  // namespace
}  // namespace cbus
