// Skip-parity tests: the kernels' quiescence skipping (sim::Component's
// next_activity/skip contract) must reproduce per-cycle stepping exactly.
// The oracle is Kernel::step(), which ticks every component every cycle,
// on a machine whose segmented interconnect (if any) holds every segment
// current -- so neither the kernel nor the interconnect's per-segment
// clocks skip anything. Each case runs the same machine once as the
// oracle and once through the skipping run_until and compares everything
// a run exposes, field by field: the RunResult and its Record, bus and
// per-core statistics, credit values and underflows, and on segmented
// topologies the per-segment statistics and credit filters, bridge depth
// accounting, backpressure and the hop histogram.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bus/bus.hpp"
#include "bus/round_robin.hpp"
#include "core/credit_filter.hpp"
#include "core/credit_state.hpp"
#include "core/virtual_contender.hpp"
#include "ctrl/controller.hpp"
#include "obs/telemetry.hpp"
#include "platform/config_file.hpp"
#include "platform/multicore.hpp"
#include "platform/scenarios.hpp"
#include "rng/splitmix64.hpp"
#include "sim/batch_kernel.hpp"
#include "sim/kernel.hpp"
#include "workloads/kernel_stream.hpp"

namespace cbus::platform {
namespace {

// --- kernel contract on a scripted component --------------------------------

/// Due every `period` cycles; counts ticks and folded cycles.
class Periodic final : public sim::Component {
 public:
  explicit Periodic(Cycle period)
      : sim::Component("periodic"), period_(period) {}
  void tick(Cycle now) override {
    ++ticks;
    last = now;
  }
  [[nodiscard]] Cycle next_activity(Cycle now) const override {
    return period_ == 0 ? sim::kNever : now + period_;
  }
  void skip(Cycle k) override { skipped += k; }

  std::uint64_t ticks = 0;
  Cycle skipped = 0;
  Cycle last = 0;

 private:
  Cycle period_;
};

TEST(SkipKernel, TicksOnlyAtHorizonsAndFoldsTheRest) {
  sim::Kernel kernel;
  Periodic p(10);
  kernel.add(p);
  std::uint64_t polls = 0;
  const bool fired = kernel.run_until(
      [&] {
        ++polls;
        return p.ticks == 5;
      },
      1000);
  EXPECT_TRUE(fired);
  EXPECT_EQ(p.ticks, 5u);
  EXPECT_EQ(polls, 5u);  // polled after executed cycles only
  EXPECT_EQ(p.last, 40u);
  EXPECT_EQ(p.skipped, 36u);
  EXPECT_EQ(kernel.now(), 41u);
  EXPECT_EQ(kernel.executed_cycles(), 5u);
}

TEST(SkipKernel, TheEarliestHorizonWinsAndDefaultComponentsTickEveryCycle) {
  sim::Kernel kernel;
  Periodic slow(100);
  Periodic fast(3);
  kernel.add(slow);
  kernel.add(fast);
  kernel.run(31);
  EXPECT_EQ(fast.ticks, 11u);  // cycles 0, 3, ..., 30
  EXPECT_EQ(slow.ticks, 11u);  // every executed cycle ticks everyone
  EXPECT_EQ(slow.skipped + slow.ticks, 31u);
  EXPECT_EQ(kernel.now(), 31u);

  // A component without a horizon (the default now + 1) disables skipping.
  struct Plain final : sim::Component {
    Plain() : sim::Component("plain") {}
    void tick(Cycle) override { ++ticks; }
    std::uint64_t ticks = 0;
  } plain;
  sim::Kernel k2;
  Periodic idle(0);
  k2.add(idle);
  k2.add(plain);
  k2.run(50);
  EXPECT_EQ(plain.ticks, 50u);
  EXPECT_EQ(idle.skipped, 0u);
}

TEST(SkipKernel, NeverHorizonJumpsStraightToTheBudget) {
  sim::Kernel kernel;
  Periodic idle(0);
  kernel.add(idle);
  EXPECT_FALSE(kernel.run_until([] { return false; }, 50'000'000));
  EXPECT_EQ(kernel.now(), 50'000'000u);
  EXPECT_EQ(kernel.executed_cycles(), 1u);  // the first cycle always runs
  EXPECT_EQ(idle.skipped, 50'000'000u - 1);
}

TEST(SkipKernel, BatchLanesKeepTheirOwnClocksAcrossStripes) {
  // A lane's jump may cross stripe ends; it must still tick at exactly
  // its own horizons and stop at the budget, at any stripe.
  for (const Cycle stripe : {Cycle{1}, Cycle{7}, Cycle{512}}) {
    sim::BatchKernel batch(3, stripe);
    Periodic a(5), b(1000), c(0);
    batch.add(0, a);
    batch.add(1, b);
    batch.add(2, c);
    const Periodic* lanes[] = {&a, &b, &c};
    const auto fired = batch.run_until(
        [&](std::size_t l) { return lanes[l]->ticks == 4; }, 2000);
    EXPECT_EQ(fired, (std::vector<bool>{true, false, false})) << stripe;
    EXPECT_EQ(a.last, 15u) << stripe;
    EXPECT_EQ(a.skipped, 12u) << stripe;
    EXPECT_EQ(b.ticks, 2u) << stripe;  // cycles 0 and 1000
    EXPECT_EQ(b.skipped, 1998u) << stripe;
    EXPECT_EQ(c.ticks, 1u) << stripe;
    EXPECT_EQ(c.skipped, 1999u) << stripe;
    EXPECT_EQ(batch.now(), 2000u) << stripe;
    EXPECT_EQ(batch.executed_cycles(), 7u) << stripe;
    EXPECT_EQ(batch.simulated_cycles(), 16u + 2000u + 2000u) << stripe;
  }
}

// --- credit closed forms ----------------------------------------------------

TEST(SkipCredit, ClosedFormsMatchTickedCounters) {
  // Heterogeneous rates, caps and thresholds; every holder choice and a
  // spread of fold lengths up to (and across) the horizons.
  core::CbaConfig cfg;
  cfg.n_masters = 4;
  cfg.scale = 8;
  cfg.max_latency = 56;
  cfg.increment = {1, 3, 8, 0};
  cfg.saturation = {448, 300, 448, 200};
  cfg.threshold = {448, 100, 0, 150};
  cfg.initial = {17, 299, 5, 160};
  rng::SplitMix64 draw(7);
  for (int round = 0; round < 200; ++round) {
    core::CreditState ticked(cfg);
    core::CreditState folded(cfg);
    for (MasterId m = 0; m < 4; ++m) {
      const std::uint64_t v = draw.next() % (cfg.saturation[m] + 1);
      ticked.set_budget(m, v);
      folded.set_budget(m, v);
    }
    const MasterId holder =
        static_cast<MasterId>(draw.next() % 5);  // 4 == idle
    const MasterId h = holder == 4 ? kNoMaster : holder;

    // recovery_cycles is exact: the k-th idle tick is the first at target.
    for (MasterId m = 0; m < 4; ++m) {
      const Cycle need = folded.recovery_cycles(m, cfg.threshold[m]);
      if (need == sim::kNever) continue;
      core::CreditState probe(cfg);
      probe.set_budget(m, folded.budget(m));
      for (Cycle i = 0; i < need; ++i) {
        EXPECT_LT(probe.budget(m), cfg.threshold[m]);
        probe.tick(kNoMaster);
      }
      EXPECT_GE(probe.budget(m), cfg.threshold[m]);
    }

    Cycle k = 1 + draw.next() % 300;
    if (h != kNoMaster) {
      const Cycle clamp = folded.cycles_before_clamp(h);
      if (clamp != sim::kNever) {
        // The first clamp is an event: the fold never crosses it, and
        // the tick right after the quiet window really clamps.
        if (clamp == 0) {
          ticked.tick(h);
          EXPECT_EQ(ticked.underflow_clamps(), 1u);
          continue;
        }
        k = std::min(k, clamp);
      }
    }
    for (Cycle i = 0; i < k; ++i) ticked.tick(h);
    folded.skip(h, k);
    for (MasterId m = 0; m < 4; ++m) {
      EXPECT_EQ(ticked.budget(m), folded.budget(m))
          << "round " << round << " master " << m << " k " << k;
    }
    EXPECT_EQ(ticked.underflow_clamps(), 0u);
    if (h != kNoMaster && folded.cycles_before_clamp(h) == 0) {
      ticked.tick(h);
      EXPECT_EQ(ticked.underflow_clamps(), 1u);
    }
  }
}

// --- platform parity: stepping oracle vs skipping run_until -----------------

[[nodiscard]] PlatformConfig config_from(const std::string& text) {
  std::istringstream in(text);
  return parse_config(in);
}

/// A short TuA with every traffic class: L1/L2 misses, write-through
/// stores filling the store buffer, atomics, compute gaps and bursts.
[[nodiscard]] workloads::KernelProfile tua_profile() {
  workloads::KernelProfile p;
  p.name = "skip-tua";
  p.footprint_bytes = 512 * 1024;
  p.n_ops = 1500;
  p.pattern = workloads::AccessPattern::kRandom;
  p.store_permille_1024 = 300;
  p.atomic_permille_1024 = 12;
  p.gap_min = 0;
  p.gap_max = 24;
  p.burst_prob_1024 = 40;
  p.burst_len = 6;
  return p;
}

/// Co-runner m: a denser kernel over its own footprint.
[[nodiscard]] workloads::KernelProfile corunner_profile(std::uint32_t m) {
  workloads::KernelProfile p = tua_profile();
  p.name = "skip-corunner";
  p.n_ops = 1200 + 150 * m;
  p.gap_max = 6;
  p.base = 0x2000'0000 + m * 0x0100'0000;
  return p;
}

struct Case {
  std::string name;
  std::string config;
  std::uint32_t corunners = 0;  ///< real co-runner cores (masters 1..k)
  bool all = false;             ///< run_all (every core) instead of run
  bool skips = true;            ///< every component has a horizon
  Cycle max_cycles = 400'000;
};

/// One machine with its streams (streams must outlive the machine).
struct Rig {
  std::unique_ptr<cpu::OpStream> tua;
  std::vector<std::unique_ptr<cpu::OpStream>> corunners;
  std::unique_ptr<Multicore> machine;

  Rig(const Case& c, std::uint64_t seed) {
    rng::SplitMix64 seeds(seed);
    tua = std::make_unique<workloads::KernelStream>(tua_profile());
    tua->reset(seeds.next());
    std::vector<cpu::OpStream*> ptrs;
    for (std::uint32_t m = 1; m <= c.corunners; ++m) {
      corunners.push_back(
          std::make_unique<workloads::KernelStream>(corunner_profile(m)));
      corunners.back()->reset(seeds.next());
      ptrs.push_back(corunners.back().get());
    }
    machine = std::make_unique<Multicore>(config_from(c.config), seed, *tua,
                                          ptrs);
  }
};

[[nodiscard]] bool finished(Multicore& m, bool all) {
  if (!all) return m.tua_done();
  for (std::size_t i = 0; i < m.real_cores(); ++i) {
    if (!m.core(i).done()) return false;
  }
  return true;
}

/// The oracle: Kernel::step() until the predicate fires or the budget,
/// every segment bus ticked in every cycle.
[[nodiscard]] RunResult step_run(Multicore& m, bool all, Cycle max_cycles) {
  if (m.segmented() != nullptr) m.segmented()->hold_segments_current();
  sim::Kernel& kernel = m.kernel();
  while (kernel.now() < max_cycles) {
    kernel.step();
    if (finished(m, all)) return m.harvest(true, kernel.now());
  }
  return m.harvest(false, kernel.now());
}

void expect_same_bus(const bus::BusStatistics& a, const bus::BusStatistics& b,
                     const std::string& where) {
  ASSERT_EQ(a.master.size(), b.master.size()) << where;
  for (std::size_t m = 0; m < a.master.size(); ++m) {
    const auto& x = a.master[m];
    const auto& y = b.master[m];
    EXPECT_EQ(x.requests, y.requests) << where << " master " << m;
    EXPECT_EQ(x.grants, y.grants) << where << " master " << m;
    EXPECT_EQ(x.completions, y.completions) << where << " master " << m;
    EXPECT_EQ(x.wait_cycles, y.wait_cycles) << where << " master " << m;
    EXPECT_EQ(x.hold_cycles, y.hold_cycles) << where << " master " << m;
    EXPECT_EQ(x.max_wait, y.max_wait) << where << " master " << m;
  }
  EXPECT_EQ(a.busy_cycles, b.busy_cycles) << where;
  EXPECT_EQ(a.idle_cycles, b.idle_cycles) << where;
  EXPECT_EQ(a.total_cycles, b.total_cycles) << where;
}

void expect_same_core(const cpu::CoreStats& a, const cpu::CoreStats& b,
                      const std::string& where) {
  EXPECT_EQ(a.cycles, b.cycles) << where;
  EXPECT_EQ(a.compute_cycles, b.compute_cycles) << where;
  EXPECT_EQ(a.bus_stall_cycles, b.bus_stall_cycles) << where;
  EXPECT_EQ(a.sb_stall_cycles, b.sb_stall_cycles) << where;
  EXPECT_EQ(a.ops, b.ops) << where;
  EXPECT_EQ(a.l1_hits, b.l1_hits) << where;
  EXPECT_EQ(a.l1_misses, b.l1_misses) << where;
  EXPECT_EQ(a.stores, b.stores) << where;
  EXPECT_EQ(a.atomics, b.atomics) << where;
  EXPECT_EQ(a.bus_requests, b.bus_requests) << where;
}

void expect_same_credits(const core::CreditFilter* a,
                         const core::CreditFilter* b,
                         const std::string& where) {
  ASSERT_EQ(a == nullptr, b == nullptr) << where;
  if (a == nullptr) return;
  const core::CreditState& x = a->state();
  const core::CreditState& y = b->state();
  for (MasterId m = 0; m < x.config().n_masters; ++m) {
    EXPECT_EQ(x.budget(m), y.budget(m)) << where << " master " << m;
    EXPECT_EQ(x.config().increment[m], y.config().increment[m])
        << where << " master " << m;
    EXPECT_EQ(x.underflow_clamps(m), y.underflow_clamps(m))
        << where << " master " << m;
  }
  EXPECT_EQ(x.underflow_clamps(), y.underflow_clamps()) << where;
}

/// Controller stats, the increments in force and the adaptive rate state.
void expect_same_controller(const ctrl::CreditController* a,
                            const ctrl::CreditController* b,
                            const std::string& where) {
  ASSERT_EQ(a == nullptr, b == nullptr) << where;
  if (a == nullptr) return;
  EXPECT_EQ(a->stats().epochs, b->stats().epochs) << where;
  EXPECT_EQ(a->stats().updates, b->stats().updates) << where;
  EXPECT_EQ(a->stats().convergence_cycles, b->stats().convergence_cycles)
      << where;
  EXPECT_EQ(a->stats().steady_error, b->stats().steady_error) << where;
  EXPECT_EQ(a->increments(), b->increments()) << where;
  const auto* x = dynamic_cast<const ctrl::AdaptiveController*>(a);
  const auto* y = dynamic_cast<const ctrl::AdaptiveController*>(b);
  ASSERT_EQ(x == nullptr, y == nullptr) << where;
  if (x == nullptr) return;
  EXPECT_TRUE(std::ranges::equal(x->rates(), y->rates())) << where;
  EXPECT_TRUE(std::ranges::equal(x->targets(), y->targets())) << where;
}

/// Everything a finished (or budget-stopped) run exposes.
void expect_same_run(Multicore& a, const RunResult& ra, Multicore& b,
                     const RunResult& rb, const std::string& where) {
  EXPECT_EQ(a.kernel().now(), b.kernel().now()) << where;
  EXPECT_EQ(ra.tua_finished, rb.tua_finished) << where;
  EXPECT_EQ(ra.tua_cycles, rb.tua_cycles) << where;
  EXPECT_EQ(ra.core_finish, rb.core_finish) << where;
  EXPECT_EQ(ra.credit_underflows, rb.credit_underflows) << where;
  EXPECT_TRUE(ra.record == rb.record) << where;
  expect_same_bus(ra.bus_stats, rb.bus_stats, where + " bus");
  expect_same_core(ra.tua_stats, rb.tua_stats, where + " tua");
  ASSERT_EQ(a.real_cores(), b.real_cores()) << where;
  for (std::size_t i = 0; i < a.real_cores(); ++i) {
    expect_same_core(a.core(i).stats(), b.core(i).stats(),
                     where + " core " + std::to_string(i));
  }
  for (std::uint32_t s = 0; s < a.bus_port().n_segments(); ++s) {
    expect_same_credits(a.segment_filter(s), b.segment_filter(s),
                        where + " filter " + std::to_string(s));
  }
  expect_same_controller(a.controller(), b.controller(), where);
  const bus::SegmentedInterconnect* sa = a.segmented();
  const bus::SegmentedInterconnect* sb = b.segmented();
  ASSERT_EQ(sa == nullptr, sb == nullptr) << where;
  if (sa == nullptr) return;
  EXPECT_EQ(sa->ticked_cycles(), sb->ticked_cycles()) << where;
  for (std::uint32_t s = 0; s < sa->n_segments(); ++s) {
    const std::string seg = where + " segment " + std::to_string(s);
    expect_same_bus(sa->segment_statistics(s), sb->segment_statistics(s), seg);
    EXPECT_EQ(sa->backpressure_stalls(s), sb->backpressure_stalls(s)) << seg;
  }
  for (std::uint32_t br = 0; br < sa->n_bridges(); ++br) {
    const std::string bridge = where + " bridge " + std::to_string(br);
    EXPECT_EQ(sa->bridge_queue_depth(br), sb->bridge_queue_depth(br))
        << bridge;
    EXPECT_EQ(sa->bridge_queue_depth_sum(br), sb->bridge_queue_depth_sum(br))
        << bridge;
    EXPECT_EQ(sa->bridge_queue_depth_max(br), sb->bridge_queue_depth_max(br))
        << bridge;
  }
  EXPECT_EQ(sa->bridge_stats().hops, sb->bridge_stats().hops) << where;
  EXPECT_EQ(sa->bridge_stats().queue_cycles, sb->bridge_stats().queue_cycles)
      << where;
  EXPECT_TRUE(std::equal(sa->hop_histogram().begin(),
                         sa->hop_histogram().end(),
                         sb->hop_histogram().begin(),
                         sb->hop_histogram().end()))
      << where;
}

// --- virtual contenders on a bare bus ---------------------------------------

/// Every transaction holds the bus for a fixed time.
class FixedSlave final : public bus::BusSlave {
 public:
  Cycle begin_transaction(const bus::BusRequest&, Cycle) override {
    return 9;
  }
};

/// Two contenders of each policy on a CBA bus, no cores: state the
/// platform records never show (the COMP latches, per-contender grants)
/// must match stepping too.
struct ContenderRig {
  FixedSlave slave;
  bus::RoundRobinArbiter arbiter{4};
  bus::NonSplitBus bus{bus::BusConfig{4, true}, arbiter, slave};
  core::CreditFilter filter{core::CbaConfig::homogeneous(4, 56)};
  std::vector<std::unique_ptr<core::VirtualContender>> contenders;
  sim::Kernel kernel;

  ContenderRig() {
    bus.set_filter(&filter);
    for (MasterId m = 0; m < 4; ++m) {
      core::VirtualContenderConfig vc;
      vc.self = m;
      vc.tua = m == 0 ? 1 : 0;
      vc.hold = 20 + 7 * m;
      vc.policy = m < 2 ? core::ContenderPolicy::kAlwaysCompete
                        : core::ContenderPolicy::kCompLatch;
      contenders.push_back(
          std::make_unique<core::VirtualContender>(vc, bus, &filter.state()));
      kernel.add(*contenders.back());
    }
    kernel.add(bus);
  }
};

TEST(SkipContenders, LatchesAndGrantsMatchSteppingAtEveryBudget) {
  for (const Cycle budget : {Cycle{1}, Cycle{37}, Cycle{500}, Cycle{4321}}) {
    ContenderRig stepped;
    ContenderRig skipped;
    for (Cycle c = 0; c < budget; ++c) stepped.kernel.step();
    skipped.kernel.run(budget);
    if (budget > 100) {
      EXPECT_LT(skipped.kernel.executed_cycles(), budget);
    }
    for (MasterId m = 0; m < 4; ++m) {
      EXPECT_EQ(stepped.contenders[m]->comp(), skipped.contenders[m]->comp())
          << budget << " contender " << m;
      EXPECT_EQ(stepped.contenders[m]->grants(),
                skipped.contenders[m]->grants())
          << budget << " contender " << m;
      EXPECT_EQ(stepped.filter.state().budget(m),
                skipped.filter.state().budget(m))
          << budget << " contender " << m;
    }
    expect_same_bus(stepped.bus.statistics(), skipped.bus.statistics(),
                    "budget " + std::to_string(budget));
  }
}

// --- platform cases ---------------------------------------------------------

constexpr std::uint64_t kSeeds[] = {1, 0xC0FFEE, 90'001};

/// Returns the skipping runs' credit underflows, summed over seeds.
std::uint64_t expect_parity(const Case& c) {
  std::uint64_t underflows = 0;
  for (const std::uint64_t seed : kSeeds) {
    const std::string where = c.name + " seed " + std::to_string(seed);
    Rig stepped(c, seed);
    Rig skipped(c, seed);
    const RunResult rs = step_run(*stepped.machine, c.all, c.max_cycles);
    const RunResult rk = c.all ? skipped.machine->run_all(c.max_cycles)
                               : skipped.machine->run(c.max_cycles);
    expect_same_run(*stepped.machine, rs, *skipped.machine, rk, where);
    const sim::Kernel& kernel = skipped.machine->kernel();
    if (c.skips) {
      EXPECT_LT(kernel.executed_cycles(), kernel.now()) << where;
    } else {
      EXPECT_EQ(kernel.executed_cycles(), kernel.now()) << where;
    }
    underflows += rk.credit_underflows;
  }
  return underflows;
}

// Single bus, operation mode: real co-runners under each arbiter family.
TEST(SkipParity, SingleBusRp) {
  expect_parity({"rp", "cores = 4\nsetup = rp\n", 3});
}
TEST(SkipParity, SingleBusCba) {
  expect_parity({"cba", "cores = 4\nsetup = cba\n", 3});
}
TEST(SkipParity, SingleBusHcbaRunAll) {
  expect_parity({"hcba", "cores = 4\nsetup = hcba\n", 3, /*all=*/true});
}
TEST(SkipParity, SingleBusTdma) {
  expect_parity({"tdma", "cores = 4\nsetup = cba\narbiter = tdma\n", 3});
}
TEST(SkipParity, SingleBusLottery) {
  expect_parity(
      {"lottery", "cores = 4\nsetup = hcba\narbiter = lottery\n", 3});
}

TEST(SkipParity, SingleBusRemainingArbiters) {
  for (const char* arbiter : {"rr", "fifo", "priority", "drr", "da"}) {
    expect_parity({arbiter,
                   std::string("cores = 4\nsetup = cba\narbiter = ") +
                       arbiter + "\n",
                   3});
  }
}

// An under-estimated MaxL lets a holder's budget clamp at zero: the
// first clamp of a transfer is an event, never folded.
TEST(SkipParity, UnderestimatedMaxLClamps) {
  EXPECT_GT(expect_parity({"maxl", "cores = 4\nsetup = cba\nmaxl = 12\n", 3}),
            0u);
}

// WCET mode: Table-I virtual contenders on the classic (per-lane) path.
TEST(SkipParity, WcetModeContenders) {
  for (const char* setup : {"rp", "cba", "hcba"}) {
    expect_parity({std::string("wcet ") + setup,
                   std::string("cores = 4\nmode = wcet\nsetup = ") + setup +
                       "\n"});
  }
}

// The split bus has no horizon: ticked every cycle, same results.
TEST(SkipParity, SplitVersusNonSplit) {
  expect_parity({"split", "cores = 4\nsetup = cba\nbus = split\n", 3, false,
                 /*skips=*/false});
  expect_parity({"non-split", "cores = 4\nsetup = cba\nbus = non-split\n", 3});
}

// The adaptive controller skips to its next sample edge.
TEST(SkipParity, AdaptiveControllerOnTheClassicPath) {
  expect_parity({"adaptive",
                 "cores = 4\nsetup = hcba\ncontroller = adaptive:512\n", 3});
}

// Graph topologies with bridges unbounded and bounded (backpressure):
// every core to completion under rp, the TuA to completion under H-CBA
// (its slow-budget co-runners would need millions of cycles), and the
// WCET protocol's virtual contenders, whose COMP latches read credit
// budgets behind the lazily clocked segments.
// The parameters are std::string, not const char*: gtest prints a C string
// with its address, which would make the test names differ between runs.
class SkipParityTopology
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
 protected:
  /// Platform text of the parameters: eight cores, nine on the 3x3 mesh
  /// (every segment needs a home core).
  [[nodiscard]] std::string shape() const {
    const auto& [topology, depth] = GetParam();
    std::string text = "cores = " + std::to_string(cores()) + "\n";
    text += "arbiter = rr\ntopology = " + topology + "\n";
    return text + "bridge_depth = " + depth + "\n";
  }
  [[nodiscard]] std::uint32_t cores() const {
    return std::get<0>(GetParam()) == "mesh:3x3" ? 9 : 8;
  }
  [[nodiscard]] std::string name() const {
    return std::get<0>(GetParam()) + " depth " + std::get<1>(GetParam());
  }
};

TEST_P(SkipParityTopology, MatchesStepping) {
  const std::uint32_t k = cores() - 1;  // real co-runners
  expect_parity({name() + " rp", shape() + "setup = rp\n", k, /*all=*/true});
  expect_parity({name() + " hcba", shape() + "setup = hcba\n", k});
  expect_parity({name() + " con", shape() + "mode = wcet\nsetup = hcba\n"});
}

// Reads in the middle of a run settle the segments' clocks without
// perturbing them: stop the skipping run at several budgets, read every
// statistic there against the oracle stepped to the same cycle, carry
// on, and finish equal to a run nobody read.
TEST_P(SkipParityTopology, MidRunReadsMatchTheOracle) {
  const Case c{name() + " hcba", shape() + "setup = hcba\n", cores() - 1};
  constexpr Cycle kBudgets[] = {1, 97, 1'000, 4'321, 12'345};
  Rig read(c, kSeeds[1]);
  sim::Kernel& kernel = read.machine->kernel();
  for (const Cycle budget : kBudgets) {
    kernel.run(budget - kernel.now());
    ASSERT_EQ(kernel.now(), budget);
    Rig oracle(c, kSeeds[1]);
    (void)step_run(*oracle.machine, false, budget);
    const std::string where = c.name + " at " + std::to_string(budget);
    // The interconnect's own readers first, then the platform harvest
    // (segment filters, Record).
    const bus::SegmentedInterconnect& lazy = *read.machine->segmented();
    const bus::SegmentedInterconnect& eager = *oracle.machine->segmented();
    expect_same_bus(lazy.statistics(), eager.statistics(), where);
    const RunResult rr = read.machine->harvest(false, budget);
    const RunResult ro = oracle.machine->harvest(false, budget);
    expect_same_run(*oracle.machine, ro, *read.machine, rr, where);
  }
  const Cycle end = kernel.now();
  Rig unread(c, kSeeds[1]);
  unread.machine->kernel().run(end);
  const RunResult ru = unread.machine->harvest(false, end);
  const RunResult rr = read.machine->harvest(false, end);
  expect_same_run(*unread.machine, ru, *read.machine, rr, c.name + " unread");
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndDepths, SkipParityTopology,
    ::testing::Combine(::testing::Values(std::string("chain:3"),
                                         std::string("ring:4"),
                                         std::string("mesh:2x2"),
                                         std::string("mesh:3x3")),
                       ::testing::Values(std::string("unbounded"),
                                         std::string("1"), std::string("2"))));

TEST(SkipParity, BudgetLandingInsideAQuietWindow) {
  // Find quiet windows of a skipping run (gaps between the executed
  // cycles its predicate sees), then stop fresh runs in the middle of
  // several of them: the last jump must clamp to the budget exactly.
  for (const char* text : {"cores = 4\nmode = wcet\nsetup = rp\n",
                           "cores = 8\nsetup = hcba\narbiter = rr\n"
                           "topology = mesh:2x2\nbridge_depth = 1\n"}) {
    const Case c{"budget", text, text[8] == '8' ? 7u : 0u};
    Rig probe(c, 3);
    std::vector<Cycle> executed_ends;
    sim::Kernel& kernel = probe.machine->kernel();
    (void)kernel.run_until(
        [&] {
          executed_ends.push_back(kernel.now());
          return false;
        },
        20'000);
    std::vector<Cycle> budgets;
    for (std::size_t i = 0; i + 1 < executed_ends.size(); ++i) {
      // Cycles [end_i, end_{i+1} - 1) were skipped.
      if (executed_ends[i + 1] - executed_ends[i] >= 4) {
        budgets.push_back(executed_ends[i] +
                          (executed_ends[i + 1] - executed_ends[i]) / 2);
      }
      if (budgets.size() == 5) break;
    }
    ASSERT_EQ(budgets.size(), 5u) << text;
    for (const Cycle budget : budgets) {
      Rig stepped(c, 3);
      Rig skipped(c, 3);
      const RunResult rs = step_run(*stepped.machine, false, budget);
      const RunResult rk = skipped.machine->run(budget);
      EXPECT_FALSE(rk.tua_finished);
      EXPECT_EQ(skipped.machine->kernel().now(), budget);
      expect_same_run(*stepped.machine, rs, *skipped.machine, rk,
                      "budget " + std::to_string(budget));
    }
  }
}

TEST(SkipParity, BatchLanesMatchTheSteppingOracle) {
  // The striped BatchKernel loop skips per lane; each lane must equal
  // its own stepped replica at any stripe.
  const Case c{"batch mesh", "cores = 8\nsetup = hcba\narbiter = rr\n"
               "topology = mesh:2x2\nbridge_depth = 1\n", 7};
  for (const Cycle stripe : {Cycle{1}, Cycle{64}, Cycle{512}}) {
    std::vector<std::unique_ptr<Rig>> lanes;
    sim::BatchKernel batch(3, stripe);
    for (std::size_t l = 0; l < 3; ++l) {
      lanes.push_back(std::make_unique<Rig>(c, 100 + l));
      lanes.back()->machine->attach(batch, l);
    }
    const auto fired = batch.run_until(
        [&](std::size_t l) { return lanes[l]->machine->tua_done(); },
        c.max_cycles);
    EXPECT_LT(batch.executed_cycles(), batch.simulated_cycles());
    for (std::size_t l = 0; l < 3; ++l) {
      Rig stepped(c, 100 + l);
      const RunResult rs = step_run(*stepped.machine, false, c.max_cycles);
      const RunResult rk = lanes[l]->machine->harvest(fired[l], batch.now());
      const std::string where =
          "stripe " + std::to_string(stripe) + " lane " + std::to_string(l);
      EXPECT_EQ(rs.tua_finished, rk.tua_finished) << where;
      EXPECT_TRUE(rs.record == rk.record) << where;
      expect_same_core(rs.tua_stats, rk.tua_stats, where);
    }
  }
}

// --- the adaptive controller's horizon ---------------------------------------

/// H-CBA with three real co-runners under `controller = adaptive:<window>`.
/// Window 16 samples every cycle, so nothing is skipped there.
[[nodiscard]] Case adaptive_case(Cycle window) {
  return {"adaptive:" + std::to_string(window),
          "cores = 4\nsetup = hcba\ncontroller = adaptive:" +
              std::to_string(window) + "\n",
          3, false, /*skips=*/window > 16};
}

/// The machine's demand-window geometry: the configured window rounded up
/// to a bucket multiple, and one bucket (the sample period).
[[nodiscard]] std::pair<Cycle, Cycle> window_geometry(const Case& c) {
  Rig rig(c, 1);
  const auto& ctl =
      dynamic_cast<const ctrl::AdaptiveController&>(*rig.machine->controller());
  const Cycle window = ctl.demand().window();
  return {window, window / 16};
}

TEST(SkipController, HorizonIsTheNextSampleEdge) {
  // Alone in a kernel the controller executes its sample edges only:
  // cycle 0, then every bucket's last cycle.
  for (const Cycle window : {Cycle{16}, Cycle{1000}, Cycle{1024}}) {
    const Case c = adaptive_case(window);
    const auto [span, bucket] = window_geometry(c);
    Rig rig(c, 1);
    ctrl::CreditController& ctl = *rig.machine->controller();
    sim::Kernel kernel;
    kernel.add(ctl);
    const Cycle budget = 7 * span + bucket / 2;
    kernel.run(budget);
    EXPECT_EQ(kernel.now(), budget) << window;
    EXPECT_EQ(ctl.stats().epochs, 7u) << window;
    const std::uint64_t samples = budget / bucket;
    EXPECT_EQ(kernel.executed_cycles(), samples + (bucket > 1 ? 1 : 0))
        << window;
  }
}

TEST(SkipController, WindowsMatchStepping) {
  // 1000 is not a bucket multiple: the window rounds up to 1008, 63-cycle
  // buckets. The controller must have retuned for the parity to mean
  // anything.
  for (const Cycle window : {Cycle{16}, Cycle{1000}, Cycle{1024}}) {
    const Case c = adaptive_case(window);
    expect_parity(c);
    Rig rig(c, kSeeds[0]);
    (void)rig.machine->run(c.max_cycles);
    EXPECT_GT(rig.machine->controller()->stats().updates, 0u) << c.name;
  }
}

TEST(SkipController, BudgetsOnAndBetweenEpochEdges) {
  // Epoch k closes in cycle k * window - 1: a budget of k * window
  // executes that edge, one cycle less stops just before it, and
  // k * window + bucket / 2 stops mid-bucket.
  for (const Cycle window : {Cycle{16}, Cycle{1000}, Cycle{1024}}) {
    Case c = adaptive_case(window);
    const auto [span, bucket] = window_geometry(c);
    const Cycle k = window == 16 ? 40 : 5;
    const std::pair<Cycle, std::uint64_t> budgets[] = {
        {k * span, k}, {k * span - 1, k - 1}, {k * span + bucket / 2, k}};
    for (const auto& [budget, epochs] : budgets) {
      c.max_cycles = budget;
      for (const std::uint64_t seed : kSeeds) {
        const std::string where = c.name + " budget " +
                                  std::to_string(budget) + " seed " +
                                  std::to_string(seed);
        Rig stepped(c, seed);
        Rig skipped(c, seed);
        const RunResult rs = step_run(*stepped.machine, false, budget);
        const RunResult rk = skipped.machine->run(budget);
        EXPECT_FALSE(rk.tua_finished) << where;
        EXPECT_EQ(skipped.machine->kernel().now(), budget) << where;
        EXPECT_EQ(skipped.machine->controller()->stats().epochs, epochs)
            << where;
        expect_same_run(*stepped.machine, rs, *skipped.machine, rk, where);
      }
    }
  }
}

TEST(SkipController, BatchLanesMatchTheSteppingOracle) {
  // Adaptive lanes in the striped BatchKernel loop, one seed per lane.
  for (const Cycle window : {Cycle{16}, Cycle{1000}, Cycle{1024}}) {
    const Case c = adaptive_case(window);
    for (const Cycle stripe : {Cycle{1}, Cycle{512}}) {
      std::vector<std::unique_ptr<Rig>> lanes;
      sim::BatchKernel batch(std::size(kSeeds), stripe);
      for (std::size_t l = 0; l < std::size(kSeeds); ++l) {
        lanes.push_back(std::make_unique<Rig>(c, kSeeds[l]));
        lanes.back()->machine->attach(batch, l);
      }
      const auto fired = batch.run_until(
          [&](std::size_t l) { return lanes[l]->machine->tua_done(); },
          c.max_cycles);
      if (c.skips) {
        EXPECT_LT(batch.executed_cycles(), batch.simulated_cycles());
      } else {
        EXPECT_EQ(batch.executed_cycles(), batch.simulated_cycles());
      }
      for (std::size_t l = 0; l < std::size(kSeeds); ++l) {
        Rig stepped(c, kSeeds[l]);
        const RunResult rs = step_run(*stepped.machine, false, c.max_cycles);
        Multicore& lane = *lanes[l]->machine;
        const RunResult rk = lane.harvest(fired[l], batch.now());
        const std::string where = c.name + " stripe " +
                                  std::to_string(stripe) + " lane " +
                                  std::to_string(l);
        EXPECT_TRUE(rs.tua_finished) << where;
        EXPECT_EQ(rs.tua_finished, rk.tua_finished) << where;
        EXPECT_TRUE(rs.record == rk.record) << where;
        expect_same_bus(rs.bus_stats, rk.bus_stats, where + " bus");
        expect_same_core(rs.tua_stats, rk.tua_stats, where);
        expect_same_credits(stepped.machine->segment_filter(0),
                            lane.segment_filter(0), where);
        expect_same_controller(stepped.machine->controller(),
                               lane.controller(), where);
      }
    }
  }
}

// --- the documented ring deadlock -------------------------------------------

/// Endless loads into the stripes of one target segment (fresh lines, so
/// every load misses the L1 and crosses the interconnect).
class AntipodalStream final : public cpu::OpStream {
 public:
  AntipodalStream(std::uint32_t target, std::uint32_t n_segments)
      : target_(target), n_segments_(n_segments) {}
  [[nodiscard]] std::optional<cpu::MemOp> next() override {
    const std::uint64_t stripe = target_ + n_segments_ * (line_ / 128);
    const Addr addr =
        static_cast<Addr>((stripe << 12) | ((line_ % 128) * 32));
    ++line_;
    return cpu::MemOp{MemOpKind::kLoad, addr, 0};
  }
  void reset(std::uint64_t /*seed*/) override { line_ = 0; }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "antipodal";
  }

 private:
  std::uint32_t target_;
  std::uint32_t n_segments_;
  std::uint64_t line_ = 0;
};

/// ring:4, bridge_depth 1, two cores per segment, every core streaming to
/// the antipodal segment (two forward hops): docs/TOPOLOGIES.md's
/// deadlock. Masters 2s and 2s+1 live on segment s.
struct RingDeadlock {
  std::vector<std::unique_ptr<cpu::OpStream>> streams;
  std::unique_ptr<Multicore> machine;

  RingDeadlock() {
    const PlatformConfig config = config_from(
        "cores = 8\nsetup = rp\narbiter = rr\ntopology = ring:4\n"
        "bridge_depth = 1\n");
    for (MasterId m = 0; m < 8; ++m) {
      streams.push_back(std::make_unique<AntipodalStream>((m / 2 + 2) % 4, 4));
    }
    std::vector<cpu::OpStream*> corunners;
    for (std::size_t m = 1; m < streams.size(); ++m) {
      corunners.push_back(streams[m].get());
    }
    machine = std::make_unique<Multicore>(config, 5, *streams[0], corunners);
  }
};

TEST(RingDeadlock, SmallBudgetComesBackUnfinishedAndMatchesStepping) {
  RingDeadlock stepped;
  RingDeadlock skipped;
  const RunResult rs = step_run(*stepped.machine, false, 30'000);
  const RunResult rk = skipped.machine->run(30'000);
  EXPECT_FALSE(rk.tua_finished);
  expect_same_run(*stepped.machine, rs, *skipped.machine, rk, "ring deadlock");
}

TEST(RingDeadlock, DefaultBudgetIsReachedWithoutSpinning) {
  // Deadlocked, nothing has a horizon: the kernel jumps straight to
  // max_cycles instead of ticking 50M dead cycles.
  RingDeadlock rig;
  const RunResult r = rig.machine->run();  // the default 50M budget
  EXPECT_FALSE(r.tua_finished);
  EXPECT_EQ(rig.machine->kernel().now(), 50'000'000u);
  EXPECT_LT(rig.machine->kernel().executed_cycles(), 30'000u);
  // The ring really is stuck: no segment completes anything late on.
  std::uint64_t completions = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    completions += rig.machine->segmented()->segment_statistics(s).totals()
                       .completions;
  }
  RingDeadlock early;
  (void)early.machine->run(30'000);
  std::uint64_t early_completions = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    early_completions +=
        early.machine->segmented()->segment_statistics(s).totals()
            .completions;
  }
  EXPECT_EQ(completions, early_completions);
}

// --- telemetry --------------------------------------------------------------

TEST(SkipTelemetry, SlicesReportExecutedAgainstSimulatedLaneCycles) {
  CampaignSpec spec;
  spec.config = config_from(
      "cores = 8\nsetup = hcba\narbiter = rr\ntopology = mesh:2x2\n");
  spec.protocol = CampaignSpec::Protocol::kCorun;
  spec.tua_factory = [] {
    return std::make_unique<workloads::KernelStream>(tua_profile());
  };
  for (std::uint32_t m = 1; m < 8; ++m) {
    spec.corunner_factories.push_back([m] {
      return std::make_unique<workloads::KernelStream>(corunner_profile(m));
    });
  }
  spec.runs = 4;
  spec.batch = 4;
  std::vector<RunOutcome> outcomes(4);
  const KernelCycles cycles = run_campaign_slice(spec, 0, outcomes);
  EXPECT_GT(cycles.executed, 0u);
  EXPECT_LT(cycles.executed, cycles.simulated);
  // Each executed cycle ticks only the due segments of the four.
  EXPECT_GT(cycles.segment_cycles_executed, 0u);
  EXPECT_LT(cycles.segment_cycles_executed, 4 * cycles.executed);

  obs::Telemetry telemetry;
  telemetry.executed_cycles = cycles.executed;
  telemetry.simulated_cycles = cycles.simulated;
  telemetry.segment_cycles_executed = cycles.segment_cycles_executed;
  std::ostringstream doc;
  obs::write_telemetry_json(doc, telemetry, "run");
  EXPECT_NE(doc.str().find("\"kernel\": {\"executed_cycles\": " +
                           std::to_string(cycles.executed) +
                           ", \"simulated_cycles\": " +
                           std::to_string(cycles.simulated) +
                           ", \"segment_cycles_executed\": " +
                           std::to_string(cycles.segment_cycles_executed) +
                           "}"),
            std::string::npos);
}

}  // namespace
}  // namespace cbus::platform
