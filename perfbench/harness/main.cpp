// perfbench_harness: runs one benchmark workload in this process and
// prints one JSON line with the raw per-repetition measurements.
//
//   perfbench_harness plain    --spec FILE --out DIR [--seed N] [--seconds S]
//   perfbench_harness traced   --spec FILE --out DIR [--seed N] [--seconds S]
//                              [--inject LAYER=MS]
//   perfbench_harness accuracy
//
// plain   times repeated campaigns through exp::run_experiment +
//         exp::emit_outputs -- the path `cbus_sim --experiment` takes --
//         with no tracing, plus repeated timings of the pre-slice set-up
//         and a host-speed reference around every campaign.
// traced  runs the same campaigns rebuilt from public calls with a span
//         around each layer (traced.hpp) and writes the spans to
//         DIR/spans.json at exit.
// accuracy prints the simulated matrix CON/ISO slowdowns next to the
//         paper's Figure-1 values; it is a model check, not a timing.
//
// perfbench/run.py turns these raw numbers into the benchmark's metrics.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "exp/sinks.hpp"
#include "obs/telemetry.hpp"
#include "reference.hpp"
#include "stats/log_histogram.hpp"
#include "traced.hpp"

namespace {

using namespace perfbench;
using namespace cbus;

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench_harness: " << message << "\n"
            << "usage: perfbench_harness plain|traced --spec FILE --out DIR "
               "[--seed N] [--seconds S] [--min-reps N] [--max-reps N] "
               "[--setup-samples N] [--inject LAYER=MS]\n"
               "       perfbench_harness accuracy\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Options opt;
  opt.mode = argv[1];
  if (opt.mode != "plain" && opt.mode != "traced" && opt.mode != "accuracy") {
    usage("unknown mode '" + opt.mode + "'");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--spec") {
        opt.spec_path = value;
      } else if (arg == "--out") {
        opt.out_dir = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value, nullptr, 0);
        opt.seed_set = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--min-reps") {
        opt.min_reps = static_cast<std::uint32_t>(std::stoul(value));
      } else if (arg == "--max-reps") {
        opt.max_reps = static_cast<std::uint32_t>(std::stoul(value));
      } else if (arg == "--setup-samples") {
        opt.setup_samples = static_cast<std::uint32_t>(std::stoul(value));
      } else if (arg == "--inject") {
        const auto eq = value.find('=');
        if (eq == std::string::npos) usage("--inject wants LAYER=MS");
        opt.inject_ms[value.substr(0, eq)] = std::stod(value.substr(eq + 1));
      } else {
        usage("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": '" + value + "'");
    }
  }
  if (opt.mode == "accuracy" && argc > 2) usage("accuracy takes no flags");
  if (opt.mode != "accuracy" && (opt.spec_path.empty() || opt.out_dir.empty())) {
    usage("--spec and --out are required");
  }
  if (opt.min_reps < 1 || opt.max_reps < opt.min_reps) {
    usage("need 1 <= --min-reps <= --max-reps");
  }
  return opt;
}

/// Run `rep(r)` at least min_reps times, then while the next repetition
/// (assumed as long as the last) still fits the seconds budget.
template <class Rep>
std::uint32_t repeat(const Options& opt, Rep&& rep) {
  const Clock::time_point start = Clock::now();
  double last = 0.0;
  std::uint32_t r = 0;
  for (; r < opt.max_reps; ++r) {
    if (r >= opt.min_reps && seconds_since(start) + last > opt.seconds) break;
    const Clock::time_point t0 = Clock::now();
    rep(r);
    last = seconds_since(t0);
  }
  return r;
}

/// Append set-up samples, each the mean of kSetupRounds back-to-back
/// set-ups: one set-up takes tens of microseconds, too short to time alone.
void time_setup(const Options& opt, std::vector<double>& samples) {
  constexpr std::uint32_t kSetupRounds = 25;
  for (std::uint32_t i = 0; i < opt.setup_samples; ++i) {
    const Clock::time_point t0 = Clock::now();
    for (std::uint32_t round = 0; round < kSetupRounds; ++round) {
      setup_once(opt);
    }
    samples.push_back(seconds_since(t0) / kSetupRounds);
  }
}

/// The slice wall times run_experiment's telemetry recorded, ascending,
/// each the midpoint of its ~0.2%-wide sketch bucket.
std::string sorted_slice_ms(const obs::Telemetry& telemetry) {
  std::vector<double> values;
  for (const stats::LogHistogram::Bucket& bucket :
       telemetry.slice_wall_ms.buckets()) {
    values.insert(values.end(), bucket.count,
                  stats::LogHistogram::representative(bucket.key));
  }
  std::ostringstream out;
  out.precision(9);
  out << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ", ") << values[i];
  }
  out << ']';
  return out.str();
}

int run_plain(const Options& opt) {
  // The first set-up is the cold one a user pays once per invocation.
  const Clock::time_point cold = Clock::now();
  setup_once(opt);
  const double cold_setup = seconds_since(cold);
  std::vector<double> setup;
  std::vector<double> wall, attempted, failed, cycles, busy, threads;
  std::vector<std::string> outputs, records, slices;
  // The host-speed reference brackets every repetition, one before the
  // first, then one after each, on the CPUs and as many threads as the
  // campaigns use. Each one after a campaign samples for a share of that
  // campaign's time, so that a long campaign, whose time averages over
  // the host's fast fluctuations, is matched by a reference that does.
  constexpr double kReferenceShare = 0.04;
  const unsigned workers = std::max(1U, prepare_spec(opt).threads);
  pin_to_cpus(workers);
  std::vector<double> reference{reference_seconds(workers, 0.0)};
  repeat(opt, [&](std::uint32_t) {
    // Set-up samples are spread over the run, one batch per repetition.
    time_setup(opt, setup);
    const exp::ExperimentSpec spec = prepare_spec(opt);
    remove_checkpoint(spec);
    const Clock::time_point t0 = Clock::now();
    const exp::ExperimentResult result = exp::run_experiment(spec);
    std::ostringstream summary;
    exp::emit_outputs(spec, result.jobs, summary);
    wall.push_back(seconds_since(t0));

    const RunTally runs = tally(spec, result.jobs);
    attempted.push_back(static_cast<double>(runs.attempted));
    failed.push_back(static_cast<double>(runs.failed));
    cycles.push_back(simulated_cycles(spec, result.jobs));
    outputs.push_back(hex(outputs_digest(spec, summary.str())));
    records.push_back(hex(records_digest(result.jobs)));
    slices.push_back(sorted_slice_ms(result.telemetry));
    double busy_s = 0.0;
    for (const double s : result.telemetry.thread_busy_seconds) busy_s += s;
    const auto pool = result.telemetry.thread_busy_seconds.size();
    threads.push_back(static_cast<double>(pool));
    busy.push_back(pool == 0 || result.telemetry.wall_seconds <= 0.0
                       ? 0.0
                       : busy_s / (static_cast<double>(pool) *
                                   result.telemetry.wall_seconds));
    reference.push_back(
        reference_seconds(workers, kReferenceShare * wall.back()));
  });
  std::string slice_json = "[";
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (i != 0) slice_json += ", ";
    slice_json += slices[i];
  }
  slice_json += "]";
  std::cout << JsonObject()
                   .str("mode", "plain")
                   .raw("provenance", provenance_json())
                   .num("cold_setup_s", cold_setup)
                   .nums("setup_s", setup)
                   .nums("wall_s", wall)
                   .nums("attempted", attempted)
                   .nums("failed", failed)
                   .nums("sim_cycles", cycles)
                   .nums("thread_busy_frac", busy)
                   .nums("threads", threads)
                   .raw("slice_ms", slice_json)
                   .nums("reference_s", reference)
                   .strs("outputs_digest", outputs)
                   .strs("records_digest", records)
                   .num("peak_rss_kb", static_cast<double>(obs::peak_rss_kb()))
                   .str()
            << std::endl;
  return 0;
}

int run_traced(const Options& opt) {
  pin_to_cpus(std::max(1U, prepare_spec(opt).threads));
  Tracer tracer(opt);
  std::vector<TracedRep> reps;
  repeat(opt, [&](std::uint32_t r) { reps.push_back(tracer.run_rep(r)); });

  std::vector<double> wall, attempted, failed, record_cycles, slice_ms;
  std::vector<std::string> outputs, records;
  std::vector<std::vector<double>> layer_ms(kLayerCount);
  bool counts_repeat = true;
  for (const TracedRep& rep : reps) {
    wall.push_back(rep.wall_s);
    attempted.push_back(static_cast<double>(rep.runs.attempted));
    failed.push_back(static_cast<double>(rep.runs.failed));
    record_cycles.push_back(rep.record_cycles);
    outputs.push_back(hex(rep.outputs_digest));
    records.push_back(hex(rep.records_digest));
    slice_ms.insert(slice_ms.end(), rep.slice_ms.begin(), rep.slice_ms.end());
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      layer_ms[l].push_back(rep.layer_ms[l]);
    }
    const Counts& a = rep.counts;
    const Counts& b = reps.front().counts;
    counts_repeat = counts_repeat && a.sim_cycles == b.sim_cycles &&
                    a.cpu_ops == b.cpu_ops && a.bus_grants == b.bus_grants &&
                    a.l1_misses == b.l1_misses &&
                    a.engine_live_lanes == b.engine_live_lanes &&
                    rep.checkpoint_bytes == reps.front().checkpoint_bytes;
  }
  JsonObject layers;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    layers.nums(layer_name(static_cast<Layer>(l)), layer_ms[l]);
  }
  const Counts& c = reps.front().counts;
  const double slices_per_rep =
      static_cast<double>(reps.front().slice_ms.size());
  const std::string counts =
      JsonObject()
          .num("sim_cycles", c.sim_cycles)
          .num("cpu_ops", c.cpu_ops)
          .num("cpu_cycles", c.cpu_cycles)
          .num("cpu_bus_stall_cycles", c.cpu_bus_stall)
          .num("l1_hits", c.l1_hits)
          .num("l1_misses", c.l1_misses)
          .num("l2_transactions", c.l2_transactions)
          .num("l2_misses", c.l2_misses)
          .num("dram_accesses", c.dram_accesses)
          .num("bus_grants", c.bus_grants)
          .num("bus_wait_cycles", c.bus_wait)
          .num("bus_busy_cycles", c.bus_busy)
          .num("bus_total_cycles", c.bus_total)
          .num("credit_underflows", c.credit_underflows)
          .num("seg_bridge_hops", c.seg_bridge_hops)
          .num("seg_backpressure_stalls", c.seg_backpressure_stalls)
          .num("ctrl_epochs", c.ctrl_epochs)
          .num("ctrl_updates", c.ctrl_updates)
          .num("engine_cycles", c.engine_cycles)
          .num("engine_live_lanes", c.engine_live_lanes)
          .num("engine_lane_slots", c.engine_width)
          .num("checkpoint_bytes", reps.front().checkpoint_bytes)
          .num("slices", slices_per_rep)
          .str();

  std::cout << JsonObject()
                   .str("mode", "traced")
                   .raw("provenance", provenance_json())
                   .nums("wall_s", wall)
                   .nums("attempted", attempted)
                   .nums("failed", failed)
                   .nums("record_cycles", record_cycles)
                   .strs("outputs_digest", outputs)
                   .strs("records_digest", records)
                   .raw("layer_ms", layers.str())
                   .nums("slice_ms", slice_ms)
                   .raw("counts", counts)
                   .num("counts_repeat", counts_repeat ? 1.0 : 0.0)
                   .num("peak_rss_kb", static_cast<double>(obs::peak_rss_kb()))
                   .str()
            << std::endl;

  std::ofstream spans(std::filesystem::path(opt.out_dir) / "spans.json",
                      std::ios::trunc);
  tracer.write_spans(spans);
  return 0;
}

/// Figure 1's matrix row: CON means normalised to the RP-ISO mean.
int run_accuracy() {
  exp::ExperimentSpec spec;
  spec.name = "model-accuracy";
  spec.kernel = "matrix";
  spec.sweeps = {{"scenario", {"iso", "con"}}, {"setup", {"rp", "cba"}}};
  spec.set_platform_key("cores", "4");
  spec.runs = 40;
  spec.batch = 8;
  spec.threads = 1;
  spec.seed = 0xF161;
  spec.summary = false;
  const exp::ExperimentResult result = exp::run_experiment(spec);
  if (result.failed_jobs() != 0) {
    std::cerr << "perfbench_harness: model-accuracy campaign failed\n";
    return 1;
  }
  const auto mean = [&](std::size_t job) {
    return result.jobs[job].campaign.exec_time().mean();
  };
  // Jobs in sweep order: iso-rp, iso-cba, con-rp, con-cba.
  std::cout << JsonObject()
                   .str("mode", "accuracy")
                   .num("runs_per_cell", spec.runs)
                   .num("matrix_rp_con_slowdown", mean(2) / mean(0))
                   .num("matrix_cba_con_slowdown", mean(3) / mean(0))
                   .num("paper_rp_con_slowdown", 3.34)
                   .num("paper_cba_con_slowdown", 2.34)
                   .str()
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (const std::string refused = build_guard(); !refused.empty()) {
    std::cerr << "perfbench_harness: refusing to report host metrics from "
              << refused << "\n";
    return 3;
  }
  try {
    if (opt.mode == "accuracy") return run_accuracy();
    std::filesystem::create_directories(opt.out_dir);
    return opt.mode == "plain" ? run_plain(opt) : run_traced(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: error: " << e.what() << "\n";
    return 1;
  }
}
