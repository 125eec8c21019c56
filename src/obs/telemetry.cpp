#include "obs/telemetry.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <ostream>

#include "common/build_info.hpp"

namespace cbus::obs {

long peak_rss_kb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss;  // KiB on Linux
}

void write_telemetry_json(std::ostream& out, const Telemetry& t,
                          std::string_view phase) {
  out << "{\n  \"provenance\": ";
  common::write_build_info_json(out);
  out << ",\n  \"phase\": \"" << phase << "\"";
  out << ",\n  \"total_runs\": " << t.total_runs;
  out << ",\n  \"runs_done\": " << t.runs_done;
  out << ",\n  \"total_slices\": " << t.total_slices;
  out << ",\n  \"slices_done\": " << t.slices_done;
  out << ",\n  \"wall_seconds\": " << t.wall_seconds;
  out << ",\n  \"runs_per_sec\": " << t.runs_per_sec();
  out << ",\n  \"threads\": " << t.thread_busy_seconds.size();
  out << ",\n  \"thread_busy_fraction\": [";
  for (std::size_t i = 0; i < t.thread_busy_seconds.size(); ++i) {
    if (i != 0) out << ", ";
    out << (t.wall_seconds > 0.0 ? t.thread_busy_seconds[i] / t.wall_seconds
                                 : 0.0);
  }
  out << "]";
  out << ",\n  \"slice_wall_ms\": {\"count\": " << t.slice_wall_ms.count();
  if (!t.slice_wall_ms.empty()) {
    out << ", \"p50\": " << t.slice_wall_ms.quantile(0.50)
        << ", \"p90\": " << t.slice_wall_ms.quantile(0.90)
        << ", \"p99\": " << t.slice_wall_ms.quantile(0.99);
  }
  out << "}";
  out << ",\n  \"peak_rss_kb\": " << t.peak_rss_kb;
  out << ",\n  \"kernel\": {\"executed_cycles\": " << t.executed_cycles
      << ", \"simulated_cycles\": " << t.simulated_cycles << "}";
  out << "\n}\n";
}

ProgressMeter::ProgressMeter(std::ostream& err, std::uint64_t total_runs,
                             std::chrono::milliseconds min_interval)
    : err_(err),
      total_runs_(total_runs),
      min_interval_(min_interval),
      start_(std::chrono::steady_clock::now()),
      last_render_(start_ - min_interval) {}

void ProgressMeter::update(std::uint64_t runs_done,
                           std::uint64_t slices_done) {
  const auto now = std::chrono::steady_clock::now();
  if (now - last_render_ < min_interval_) return;
  last_render_ = now;
  render(runs_done, slices_done, /*final_line=*/false);
}

void ProgressMeter::finish(std::uint64_t runs_done,
                           std::uint64_t slices_done) {
  render(runs_done, slices_done, /*final_line=*/true);
}

void ProgressMeter::render(std::uint64_t runs_done,
                           std::uint64_t slices_done, bool final_line) {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_)
          .count();
  const double rate =
      elapsed > 0.0 ? static_cast<double>(runs_done) / elapsed : 0.0;
  const double pct =
      total_runs_ > 0
          ? 100.0 * static_cast<double>(runs_done) /
                static_cast<double>(total_runs_)
          : 100.0;

  char line[160];
  if (final_line || rate <= 0.0 || runs_done >= total_runs_) {
    std::snprintf(line, sizeof(line),
                  "[cbus] %llu/%llu runs (%.1f%%) | %llu slices | %.0f "
                  "runs/s | %.1fs elapsed",
                  static_cast<unsigned long long>(runs_done),
                  static_cast<unsigned long long>(total_runs_), pct,
                  static_cast<unsigned long long>(slices_done), rate,
                  elapsed);
  } else {
    const double eta =
        static_cast<double>(total_runs_ - runs_done) / rate;
    std::snprintf(line, sizeof(line),
                  "[cbus] %llu/%llu runs (%.1f%%) | %llu slices | %.0f "
                  "runs/s | ETA %.0fs",
                  static_cast<unsigned long long>(runs_done),
                  static_cast<unsigned long long>(total_runs_), pct,
                  static_cast<unsigned long long>(slices_done), rate, eta);
  }
  // \r-rewrite the line in place; pad to clear a longer previous render.
  err_ << '\r' << line << "          " << (final_line ? "\n" : "\r");
  err_.flush();
  rendered_ = true;
}

}  // namespace cbus::obs
