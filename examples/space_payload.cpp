// Space-domain scenario (the setting of the paper and of Jalle et al.'s
// dual-criticality memory controller): one critical control task sharing
// the SoC with three bandwidth-hungry payload-processing applications.
//
// Demonstrates operation-mode contention (real co-runners, not the WCET
// protocol) and how H-CBA's heterogeneous shares protect the control task
// while leaving the payloads most of the remaining bandwidth.
//
//   ./space_payload [runs]
#include <cstdlib>
#include <iostream>
#include <memory>

#include "platform/platform_config.hpp"
#include "platform/scenarios.hpp"
#include "workloads/eembc_like.hpp"
#include "workloads/streaming.hpp"

int main(int argc, char** argv) {
  using namespace cbus;

  const auto runs =
      static_cast<std::uint32_t>(argc > 1 ? std::atoi(argv[1]) : 10);

  platform::CampaignSpec spec;
  // The control task: the cache-handling kernel (moderate bus usage,
  // latency-critical).
  spec.tua_factory = [] { return workloads::make_eembc("cacheb"); };
  spec.runs = runs;
  spec.base_seed = 0x5ACE;

  spec.protocol = platform::CampaignSpec::Protocol::kIsolation;
  spec.config = platform::PlatformConfig::paper(platform::BusSetup::kRp);
  const auto iso = platform::run_campaign(spec);
  std::cout << "control task alone          : " << iso.exec_time().mean()
            << " cycles\n";

  // Three payload applications: streaming reads straight through to DRAM.
  spec.protocol = platform::CampaignSpec::Protocol::kCorun;
  spec.corunner_factories.assign(3, [] {
    return std::make_unique<workloads::StreamingStream>(0);
  });
  for (const auto setup :
       {platform::BusSetup::kRp, platform::BusSetup::kCba,
        platform::BusSetup::kHcba}) {
    spec.config = platform::PlatformConfig::paper(setup);
    const auto r = platform::run_campaign(spec);
    std::cout << "with 3 streaming payloads, " << to_string(setup) << "\t: "
              << r.exec_time().mean() << " cycles -> slowdown "
              << platform::slowdown(r, iso) << "x  (bus util "
              << 100.0 * r.bus_utilization().mean() << "%, control share "
              << 100.0 *
                     r.aggregate.element_stats("bus.occupancy_share", 0)
                         .mean()
              << "%)\n";
  }

  std::cout << "\nH-CBA (control task at 50% bandwidth) shields the "
               "critical task hardest; plain CBA already bounds the "
               "payloads' interference at 3/4 of the bus.\n";
  return 0;
}
