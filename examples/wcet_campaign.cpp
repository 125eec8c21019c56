// WCET-estimation campaign: the full MBPTA workflow of the paper.
//
// 1. Put the platform in WCET-estimation mode (Table I): contenders'
//    REQ forced, COMP latch, 56-cycle holds, TuA starts with zero budget.
// 2. Collect execution times over many randomized runs.
// 3. Fit a Gumbel tail (EVT) to block maxima and read off pWCET values.
// 4. Cross-check against operation-mode runs with real co-runners: the
//    pWCET curve must upper-bound everything observed there.
//
//   ./wcet_campaign [kernel] [runs]
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>

#include "mbpta/pwcet.hpp"
#include "platform/platform_config.hpp"
#include "platform/scenarios.hpp"
#include "workloads/eembc_like.hpp"
#include "workloads/streaming.hpp"

int main(int argc, char** argv) {
  using namespace cbus;

  const std::string kernel = argc > 1 ? argv[1] : "tblook";
  const auto runs =
      static_cast<std::uint32_t>(argc > 2 ? std::atoi(argv[2]) : 200);

  std::cout << "MBPTA campaign for '" << kernel << "' on the CBA bus ("
            << runs << " analysis runs)\n\n";

  platform::CampaignSpec spec;
  spec.tua_factory = [&kernel] { return workloads::make_eembc(kernel); };
  spec.runs = runs;
  spec.base_seed = 0xE57;
  // MBPTA fits the raw execution-time series, so keep it.
  spec.retain_raw = true;

  // Analysis-time measurements under the Table-I protocol.
  spec.protocol = platform::CampaignSpec::Protocol::kMaxContention;
  spec.config =
      platform::PlatformConfig::paper_wcet(platform::BusSetup::kCba);
  const auto analysis_runs = platform::run_campaign(spec);

  mbpta::MbptaConfig mcfg;
  mcfg.block_size = 10;
  const auto result = mbpta::analyze(analysis_runs.samples(), mcfg);

  std::cout << "samples            : " << analysis_runs.samples().size()
            << "\n"
            << "block maxima used  : " << result.maxima_used << "\n"
            << "observed max       : " << result.observed_max << " cycles\n"
            << "Gumbel fit (PWM)   : location=" << result.fit.location
            << " scale=" << result.fit.scale << "\n"
            << "fit agreement      : moments scale="
            << result.moments_fit.scale << "\n\n";

  std::cout << "diagnostics:\n"
            << "  CV test          : cv=" << result.diagnostics.cv.cv
            << (result.diagnostics.cv.accepted ? "  (accepted)"
                                               : "  (NOT accepted)")
            << "\n"
            << "  runs test        : z=" << result.diagnostics.runs.z
            << (result.diagnostics.runs.accepted ? "  (independent)"
                                                 : "  (dependence!)")
            << "\n"
            << "  lag-1 autocorr   : "
            << result.diagnostics.lag1_autocorrelation << "\n"
            << "  KS distance (PWM): " << result.diagnostics.ks_pwm << "\n\n";

  std::cout << "pWCET curve:\n";
  for (const auto& point : result.curve) {
    std::cout << "  P(exceed) = " << std::scientific << std::setprecision(0)
              << point.exceedance_probability << std::defaultfloat
              << "  ->  " << point.wcet_estimate << " cycles\n";
  }

  // Validation: operation-mode execution with real streaming co-runners
  // must stay below the pWCET estimates.
  platform::CampaignSpec op_spec;
  op_spec.protocol = platform::CampaignSpec::Protocol::kCorun;
  op_spec.config = platform::PlatformConfig::paper(platform::BusSetup::kCba);
  op_spec.tua_factory = spec.tua_factory;
  op_spec.corunner_factories.assign(3, [] {
    return std::make_unique<workloads::StreamingStream>(0);
  });
  op_spec.runs = runs / 4 + 1;
  op_spec.base_seed = 0x0b5;
  const auto op = platform::run_campaign(op_spec);

  std::cout << "\noperation-mode max (real contenders): "
            << op.exec_time().max() << " cycles\n"
            << "pWCET@1e-12                         : "
            << result.fit.quantile_exceedance(1e-12) << " cycles\n"
            << (op.exec_time().max() <=
                        result.fit.quantile_exceedance(1e-12)
                    ? "bound holds."
                    : "BOUND VIOLATED -- investigate!")
            << "\n";
  return 0;
}
