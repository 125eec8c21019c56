// Shared pieces of the benchmark harness: options, workload-spec
// preparation, output/record digests, deterministic counts and a small
// JSON writer for the one-line result document.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/runner.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string mode;       ///< plain | traced | accuracy
  std::string spec_path;  ///< workload experiment file
  std::string out_dir;    ///< where outputs, checkpoints and spans go
  std::uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 10.0;  ///< measuring budget for the repetitions
  std::uint32_t min_reps = 3;
  std::uint32_t max_reps = 1000;
  std::uint32_t setup_samples = 16;  ///< per repetition
  /// Delay (ms per call) injected at a layer boundary, keyed by layer
  /// name (`mbpta.fit`): the regression self-test's knob.
  std::map<std::string, double> inject_ms;
};

/// Load the workload file, apply the seed and point every output file
/// (CSV, JSON, checkpoint) into the output directory. Validates.
[[nodiscard]] cbus::exp::ExperimentSpec prepare_spec(const Options& options);

/// The pre-slice work of one campaign, through the same public calls
/// run_experiment makes before its first slice: load and validate the
/// spec, expand the sweep, open a fresh checkpoint.
void setup_once(const Options& options);

/// Remove the spec's checkpoint file so a repetition starts fresh
/// instead of resuming the previous one.
void remove_checkpoint(const cbus::exp::ExperimentSpec& spec);

[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t hash = 0xcbf29ce484222325ULL);
[[nodiscard]] std::string hex(std::uint64_t value);

/// Digest of what the user reads: the CSV and JSON files the spec names
/// plus the summary text printed to stdout.
[[nodiscard]] std::uint64_t outputs_digest(const cbus::exp::ExperimentSpec& spec,
                                           const std::string& summary_text);

/// Digest of every job's folded per-run records: identity, failure,
/// unfinished count and the aggregate (every raw per-run series when the
/// job retains them, the serialized digest state otherwise).
[[nodiscard]] std::uint64_t records_digest(
    const std::vector<cbus::exp::JobResult>& jobs);

/// Runs attempted and failed by one campaign. A run fails when it did
/// not finish (hit max_cycles) or belongs to a failed job.
struct RunTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};
[[nodiscard]] RunTally tally(const cbus::exp::ExperimentSpec& spec,
                             const std::vector<cbus::exp::JobResult>& jobs);

/// Simulated cycles summed over every run: the TuA time of finished runs
/// plus the full budget of unfinished ones.
[[nodiscard]] double simulated_cycles(
    const cbus::exp::ExperimentSpec& spec,
    const std::vector<cbus::exp::JobResult>& jobs);

/// Minimal JSON object writer (numbers, strings, arrays of numbers).
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& nums(std::string_view key, const std::vector<double>& values);
  JsonObject& strs(std::string_view key,
                   const std::vector<std::string>& values);
  JsonObject& raw(std::string_view key, const std::string& json);
  [[nodiscard]] std::string str() const;

 private:
  void key(std::string_view name);
  std::ostringstream body_;
  bool first_ = true;
};

/// Build provenance plus the resolved SIMD dispatch, as a JSON object.
[[nodiscard]] std::string provenance_json();

/// Empty when host metrics may be reported from this build, otherwise
/// the reason they may not (Debug, sanitizer, or SIMD dispatch off).
[[nodiscard]] std::string build_guard();

}  // namespace perfbench
