// Campaign telemetry: what the runner measures about ITSELF (progress,
// throughput, thread utilisation, memory) -- as opposed to the metrics
// digests, which measure the simulated platform. Rendered two ways:
//  * a throttled, self-rewriting stderr progress line (`--progress`) --
//    stderr ONLY, so stdout/CSV/JSON stay byte-identical with or without
//    it (locked by tests/progress_stream_test.sh);
//  * a machine-readable `telemetry.json` document (`telemetry <path>` in
//    the experiment file or `--telemetry` on the tools), stamped with
//    build provenance.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "stats/log_histogram.hpp"

namespace cbus::obs {

struct Telemetry {
  std::uint64_t total_runs = 0;
  std::uint64_t total_slices = 0;   ///< this invocation's share (shard/resume)
  std::uint64_t runs_done = 0;
  std::uint64_t slices_done = 0;
  double wall_seconds = 0.0;
  /// Per worker thread: seconds spent executing slices (vs idle/blocked).
  std::vector<double> thread_busy_seconds;
  /// Wall-clock milliseconds per completed slice.
  stats::LogHistogram slice_wall_ms;
  /// Peak resident set size of the process, in KiB (getrusage).
  long peak_rss_kb = 0;
  /// Lane-cycles the kernels ticked vs simulated (ticked + skipped as
  /// quiet), summed over this invocation's slices.
  std::uint64_t executed_cycles = 0;
  std::uint64_t simulated_cycles = 0;

  [[nodiscard]] double runs_per_sec() const noexcept {
    return wall_seconds > 0.0
               ? static_cast<double>(runs_done) / wall_seconds
               : 0.0;
  }
  /// Seconds to finish the remaining runs at the observed rate; 0 when
  /// done or no rate is established yet.
  [[nodiscard]] double eta_seconds() const noexcept {
    const double rate = runs_per_sec();
    if (rate <= 0.0 || runs_done >= total_runs) return 0.0;
    return static_cast<double>(total_runs - runs_done) / rate;
  }
};

/// Peak resident set size of the calling process, in KiB.
[[nodiscard]] long peak_rss_kb();

/// The full telemetry JSON document. `phase` distinguishes producers:
/// "run" (cbus_sim) vs "merge" (cbus_merge fold).
void write_telemetry_json(std::ostream& out, const Telemetry& telemetry,
                          std::string_view phase);

/// The throttled stderr progress line. NOT thread-safe: the runner calls
/// update() under its fold mutex, which also keeps the rendered counters
/// consistent. finish() always prints (ignoring the throttle) and
/// terminates the line.
class ProgressMeter {
 public:
  ProgressMeter(std::ostream& err, std::uint64_t total_runs,
                std::chrono::milliseconds min_interval =
                    std::chrono::milliseconds(250));

  void update(std::uint64_t runs_done, std::uint64_t slices_done);
  void finish(std::uint64_t runs_done, std::uint64_t slices_done);

 private:
  void render(std::uint64_t runs_done, std::uint64_t slices_done,
              bool final_line);

  std::ostream& err_;
  std::uint64_t total_runs_;
  std::chrono::milliseconds min_interval_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_render_;
  bool rendered_ = false;
};

}  // namespace cbus::obs
