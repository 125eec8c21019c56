// E4 -- SIV-B "Results in Isolation": the cost of CBA when the task runs
// alone. The paper reports CBA increases isolation execution time by ~3%
// on average across EEMBC (the budget gate occasionally stalls bursty
// request sequences), while H-CBA's impact is "negligible" (the TuA's
// faster recovery rate makes the gate bind almost never).
//
// We run all eight EEMBC-like kernels (the Figure-1 four plus the
// extended set) in isolation under RP, RP+CBA and RP+H-CBA.
#include <benchmark/benchmark.h>

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

void print_isolation_overheads() {
  const std::uint32_t runs = bench::campaign_runs(15);
  bench::banner(
      "SIV-B isolation overhead -- CBA vs RP with the task alone",
      "Average execution time normalised to the RP bus, " +
          std::to_string(runs) + " randomized runs per cell.");

  bench::Table table(
      {"kernel", "RP (cycles)", "CBA", "H-CBA", "iso bus util"});
  double sum_cba = 0;
  double sum_hcba = 0;
  int n = 0;
  for (const auto kernel : workloads::all_kernels()) {
    CampaignSpec spec;
    spec.protocol = CampaignSpec::Protocol::kIsolation;
    spec.tua_factory = [kernel] { return workloads::make_eembc(kernel); };
    spec.runs = runs;
    spec.base_seed = 0x150;

    spec.config = PlatformConfig::paper(BusSetup::kRp);
    const auto rp = platform::run_campaign(spec);
    spec.config = PlatformConfig::paper(BusSetup::kCba);
    const auto cba = platform::run_campaign(spec);
    spec.config = PlatformConfig::paper(BusSetup::kHcba);
    const auto hcba = platform::run_campaign(spec);

    const double base = rp.exec_time().mean();
    const double r_cba = cba.exec_time().mean() / base;
    const double r_hcba = hcba.exec_time().mean() / base;
    sum_cba += r_cba;
    sum_hcba += r_hcba;
    ++n;
    table.add_row({std::string(kernel), bench::fmt(base, 0),
                   bench::fmt(r_cba) + "x", bench::fmt(r_hcba) + "x",
                   bench::fmt(100.0 * rp.bus_utilization().mean(), 1) + "%"});
  }
  table.print();
  std::cout << "\naverage CBA isolation overhead   : "
            << bench::fmt(100.0 * (sum_cba / n - 1.0), 1)
            << "%   (paper: ~3%)\n"
            << "average H-CBA isolation overhead : "
            << bench::fmt(100.0 * (sum_hcba / n - 1.0), 1)
            << "%   (paper: negligible)\n"
            << "\nThe overhead tracks how often a kernel issues a request\n"
               "before its budget has recovered (paper SIV-B); bus-light\n"
               "kernels see none, the streaming matrix kernel the most.\n";
}

void BM_IsolationRun(benchmark::State& state, BusSetup setup) {
  auto tua = workloads::make_eembc("cacheb");
  const PlatformConfig cfg = PlatformConfig::paper(setup);
  std::uint64_t seed = 11;
  for (auto _ : state) {
    tua->reset(seed);
    platform::Multicore machine(cfg, seed, *tua);
    benchmark::DoNotOptimize(machine.run().tua_cycles);
    ++seed;
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_IsolationRun, rp, BusSetup::kRp);
BENCHMARK_CAPTURE(BM_IsolationRun, cba, BusSetup::kCba);
BENCHMARK_CAPTURE(BM_IsolationRun, hcba, BusSetup::kHcba);

int main(int argc, char** argv) {
  print_isolation_overheads();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
