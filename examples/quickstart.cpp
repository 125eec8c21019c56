// Quickstart: the smallest end-to-end use of the cbus public API.
//
// Builds the paper's 4-core LEON3-like platform, runs one EEMBC-like
// kernel in isolation and under maximum contention, with and without
// Credit-Based Arbitration, and prints the slowdowns -- a one-benchmark
// slice of the paper's Figure 1.
//
//   ./quickstart [kernel] [runs]
#include <cstdlib>
#include <iostream>
#include <string>

#include "platform/platform_config.hpp"
#include "platform/scenarios.hpp"
#include "workloads/eembc_like.hpp"

int main(int argc, char** argv) {
  using namespace cbus;

  const std::string kernel = argc > 1 ? argv[1] : "matrix";
  const auto runs =
      static_cast<std::uint32_t>(argc > 2 ? std::atoi(argv[2]) : 10);

  std::cout << "cbus quickstart: kernel=" << kernel << ", " << runs
            << " randomized runs per configuration\n\n";

  // One CampaignSpec describes a whole campaign; protocol and platform
  // vary per measurement below. Every run builds its own workload stream.
  platform::CampaignSpec spec;
  spec.tua_factory = [&kernel] { return workloads::make_eembc(kernel); };
  spec.runs = runs;
  spec.base_seed = 0xC0FFEE;

  // 1. Baseline: random-permutations bus, task alone on the machine.
  spec.protocol = platform::CampaignSpec::Protocol::kIsolation;
  spec.config = platform::PlatformConfig::paper(platform::BusSetup::kRp);
  const auto rp_iso = platform::run_campaign(spec);
  std::cout << "RP  isolation      : " << rp_iso.exec_time().mean()
            << " cycles (avg)\n";

  // 2. Baseline under maximum contention (WCET-estimation protocol).
  spec.protocol = platform::CampaignSpec::Protocol::kMaxContention;
  spec.config =
      platform::PlatformConfig::paper_wcet(platform::BusSetup::kRp);
  const auto rp_con = platform::run_campaign(spec);
  std::cout << "RP  max contention : " << rp_con.exec_time().mean()
            << " cycles -> slowdown " << platform::slowdown(rp_con, rp_iso)
            << "x\n";

  // 3. Same contention with CBA enabled: slowdown drops towards the
  //    core-count bound.
  spec.config =
      platform::PlatformConfig::paper_wcet(platform::BusSetup::kCba);
  const auto cba_con = platform::run_campaign(spec);
  std::cout << "CBA max contention : " << cba_con.exec_time().mean()
            << " cycles -> slowdown " << platform::slowdown(cba_con, rp_iso)
            << "x\n";

  // 4. H-CBA: give the task under analysis 50% of the bus.
  spec.config =
      platform::PlatformConfig::paper_wcet(platform::BusSetup::kHcba);
  const auto hcba_con = platform::run_campaign(spec);
  std::cout << "H-CBA max contention: " << hcba_con.exec_time().mean()
            << " cycles -> slowdown " << platform::slowdown(hcba_con, rp_iso)
            << "x\n";

  // The metric record behind every campaign: Jain's fairness index over
  // per-master occupancy cycles, straight from the aggregate.
  std::cout << "\nCBA occupancy fairness (Jain, 1.0 = equal): "
            << cba_con.aggregate.element_stats("fair.jain_occupancy").mean()
            << " vs RP "
            << rp_con.aggregate.element_stats("fair.jain_occupancy").mean()
            << "\n";

  std::cout << "\nCBA turns an (in general) unbounded contention slowdown "
               "into one bounded by the core count.\n";
  return 0;
}
