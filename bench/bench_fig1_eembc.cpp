// E3 -- Figure 1 of the paper: per-benchmark slowdown (normalised average
// execution time) for the EEMBC Autobench-like kernels under six bus
// configurations: {RP, CBA, H-CBA} x {isolation, maximum contention}.
//
// Paper values (read off Figure 1):
//   * all slowdowns below 4x (EEMBC does not saturate the bus);
//   * worst RP-CON slowdown: matrix at 3.34x;
//   * worst CBA-CON slowdown: 2.34x;
//   * H-CBA-CON lowers the maximum further;
//   * CBA-ISO costs ~3% on average; H-CBA-ISO is negligible.
//
// The paper runs 1,000 randomized runs per cell on the FPGA; default here
// is 20 per cell (override with CBUS_BENCH_RUNS) since the shape is stable
// far earlier.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "platform/platform_config.hpp"
#include "platform/scenarios.hpp"
#include "workloads/eembc_like.hpp"

namespace {

using namespace cbus;
using platform::BusSetup;
using platform::CampaignSpec;
using platform::PlatformConfig;

struct Row {
  double rp_iso = 1.0;
  double cba_iso = 0;
  double hcba_iso = 0;
  double rp_con = 0;
  double cba_con = 0;
  double hcba_con = 0;
};

Row measure(std::string_view kernel, std::uint32_t runs) {
  CampaignSpec spec;
  spec.tua_factory = [kernel] { return workloads::make_eembc(kernel); };
  spec.runs = runs;
  spec.base_seed = 0xF161;

  const auto mean = [&](CampaignSpec::Protocol protocol,
                        const PlatformConfig& config) {
    spec.protocol = protocol;
    spec.config = config;
    return platform::run_campaign(spec).exec_time().mean();
  };
  using Protocol = CampaignSpec::Protocol;

  const double base =
      mean(Protocol::kIsolation, PlatformConfig::paper(BusSetup::kRp));

  Row row;
  row.cba_iso =
      mean(Protocol::kIsolation, PlatformConfig::paper(BusSetup::kCba)) /
      base;
  row.hcba_iso =
      mean(Protocol::kIsolation, PlatformConfig::paper(BusSetup::kHcba)) /
      base;
  row.rp_con = mean(Protocol::kMaxContention,
                    PlatformConfig::paper_wcet(BusSetup::kRp)) /
               base;
  row.cba_con = mean(Protocol::kMaxContention,
                     PlatformConfig::paper_wcet(BusSetup::kCba)) /
                base;
  row.hcba_con = mean(Protocol::kMaxContention,
                      PlatformConfig::paper_wcet(BusSetup::kHcba)) /
                 base;
  return row;
}

void print_figure1() {
  const std::uint32_t runs = bench::campaign_runs(20);
  bench::banner(
      "Figure 1 -- EEMBC slowdowns on the 4-core LEON3-like platform",
      "Normalised average execution time over " + std::to_string(runs) +
          " randomized runs per cell (paper: 1,000 runs).\n"
          "ISO = task alone; CON = maximum contention (WCET-estimation "
          "protocol, Table I).");

  bench::Table table({"benchmark", "RP-ISO", "CBA-ISO", "H-CBA-ISO",
                      "RP-CON", "CBA-CON", "H-CBA-CON"});
  double max_rp_con = 0;
  double max_cba_con = 0;
  double sum_cba_iso = 0;
  double sum_hcba_iso = 0;
  int n = 0;
  for (const auto kernel : workloads::figure1_kernels()) {
    const Row row = measure(kernel, runs);
    table.add_row({std::string(kernel), bench::fmt(row.rp_iso),
                   bench::fmt(row.cba_iso), bench::fmt(row.hcba_iso),
                   bench::fmt(row.rp_con), bench::fmt(row.cba_con),
                   bench::fmt(row.hcba_con)});
    max_rp_con = std::max(max_rp_con, row.rp_con);
    max_cba_con = std::max(max_cba_con, row.cba_con);
    sum_cba_iso += row.cba_iso;
    sum_hcba_iso += row.hcba_iso;
    ++n;
  }
  table.print();
  std::cout << "\nmax RP-CON slowdown    : " << bench::fmt(max_rp_con)
            << "x   (paper: 3.34x, matrix)\n"
            << "max CBA-CON slowdown   : " << bench::fmt(max_cba_con)
            << "x   (paper: 2.34x)\n"
            << "avg CBA-ISO overhead   : "
            << bench::fmt(100.0 * (sum_cba_iso / n - 1.0), 1)
            << "%   (paper: ~3%)\n"
            << "avg H-CBA-ISO overhead : "
            << bench::fmt(100.0 * (sum_hcba_iso / n - 1.0), 1)
            << "%   (paper: negligible)\n";
}

/// google-benchmark timing of one full platform run per configuration.
void BM_PlatformRun(benchmark::State& state, BusSetup setup, bool contention,
                    const char* kernel) {
  auto tua = workloads::make_eembc(kernel);
  const PlatformConfig cfg = contention ? PlatformConfig::paper_wcet(setup)
                                        : PlatformConfig::paper(setup);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    tua->reset(seed);
    platform::Multicore machine(cfg, seed, *tua);
    const auto result = machine.run();
    benchmark::DoNotOptimize(result.tua_cycles);
    ++seed;
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_PlatformRun, rp_iso_matrix, BusSetup::kRp, false,
                  "matrix");
BENCHMARK_CAPTURE(BM_PlatformRun, cba_con_matrix, BusSetup::kCba, true,
                  "matrix");
BENCHMARK_CAPTURE(BM_PlatformRun, hcba_con_tblook, BusSetup::kHcba, true,
                  "tblook");

int main(int argc, char** argv) {
  print_figure1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
