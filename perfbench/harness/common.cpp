#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "common/build_info.hpp"
#include "exp/checkpoint.hpp"
#include "vec/vec.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace cbus;

namespace {

[[nodiscard]] std::string in_out_dir(const Options& options,
                                     const std::string& path) {
  if (path.empty() || path == "-") return path;
  return (fs::path(options.out_dir) / fs::path(path).filename()).string();
}

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot read output " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void hash_double(std::uint64_t& hash, double value) {
  char bytes[sizeof(double)];
  std::memcpy(bytes, &value, sizeof(double));
  hash = fnv1a(std::string_view(bytes, sizeof(double)), hash);
}

void append_json_string(std::ostringstream& out, std::string_view text) {
  out << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';
    } else {
      out << c;
    }
  }
  out << '"';
}

void append_json_number(std::ostringstream& out, double value) {
  if (!std::isfinite(value)) {
    out << "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out << buffer;
}

}  // namespace

exp::ExperimentSpec prepare_spec(const Options& options) {
  exp::ExperimentSpec spec = exp::load_experiment(options.spec_path);
  if (options.seed_set) spec.seed = options.seed;
  spec.csv_path = in_out_dir(options, spec.csv_path);
  spec.json_path = in_out_dir(options, spec.json_path);
  spec.checkpoint_path = in_out_dir(options, spec.checkpoint_path);
  exp::validate_spec(spec);
  return spec;
}

void setup_once(const Options& options) {
  const exp::ExperimentSpec spec = prepare_spec(options);
  (void)exp::expand(spec);
  if (!spec.checkpoint_path.empty()) {
    remove_checkpoint(spec);
    (void)exp::CheckpointWriter::create(spec.checkpoint_path,
                                        exp::make_meta(spec, 0, 1));
  }
}

void remove_checkpoint(const exp::ExperimentSpec& spec) {
  if (!spec.checkpoint_path.empty()) fs::remove(spec.checkpoint_path);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::uint64_t outputs_digest(const exp::ExperimentSpec& spec,
                             const std::string& summary_text) {
  std::uint64_t hash = fnv1a("outputs");
  for (const std::string& path : {spec.csv_path, spec.json_path}) {
    if (path.empty() || path == "-") continue;
    hash = fnv1a(read_file(path), fnv1a(fs::path(path).filename().string(), hash));
  }
  return fnv1a(summary_text, hash);
}

std::uint64_t records_digest(const std::vector<exp::JobResult>& jobs) {
  std::uint64_t hash = fnv1a("records");
  for (const exp::JobResult& job : jobs) {
    hash = fnv1a(std::to_string(job.index) + job.kernel + job.scenario +
                     std::to_string(job.seed) + "|" + job.error + "|" +
                     std::to_string(job.campaign.unfinished_runs),
                 hash);
    const metrics::Aggregator& agg = job.campaign.aggregate;
    if (!agg.retains_raw()) {
      std::ostringstream bytes;
      agg.serialize(bytes);
      hash = fnv1a(bytes.str(), hash);
      continue;
    }
    hash = fnv1a(std::to_string(agg.runs()), hash);
    for (const std::string& key : agg.keys()) {
      hash = fnv1a(key, hash);
      for (std::size_t e = 0; e < agg.width(key); ++e) {
        for (const double x : agg.element_samples(key, e)) hash_double(hash, x);
      }
    }
  }
  return hash;
}

RunTally tally(const exp::ExperimentSpec& spec,
               const std::vector<exp::JobResult>& jobs) {
  RunTally out;
  for (const exp::JobResult& job : jobs) {
    out.attempted += spec.runs;
    out.failed += job.failed() ? spec.runs : job.campaign.unfinished_runs;
  }
  return out;
}

double simulated_cycles(const exp::ExperimentSpec& spec,
                        const std::vector<exp::JobResult>& jobs) {
  double cycles = 0.0;
  for (const exp::JobResult& job : jobs) {
    const metrics::Aggregator& agg = job.campaign.aggregate;
    if (agg.has("tua.cycles")) cycles += agg.element_sum("tua.cycles");
    cycles += static_cast<double>(job.campaign.unfinished_runs) *
              static_cast<double>(spec.max_cycles);
  }
  return cycles;
}

void JsonObject::key(std::string_view name) {
  if (!first_) body_ << ", ";
  first_ = false;
  append_json_string(body_, name);
  body_ << ": ";
}

std::string JsonObject::str() const {
  std::string out = "{";
  out += body_.str();
  out += '}';
  return out;
}

JsonObject& JsonObject::num(std::string_view name, double value) {
  key(name);
  append_json_number(body_, value);
  return *this;
}

JsonObject& JsonObject::str(std::string_view name, std::string_view value) {
  key(name);
  append_json_string(body_, value);
  return *this;
}

JsonObject& JsonObject::nums(std::string_view name,
                             const std::vector<double>& values) {
  key(name);
  body_ << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) body_ << ", ";
    append_json_number(body_, values[i]);
  }
  body_ << ']';
  return *this;
}

JsonObject& JsonObject::strs(std::string_view name,
                             const std::vector<std::string>& values) {
  key(name);
  body_ << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) body_ << ", ";
    append_json_string(body_, values[i]);
  }
  body_ << ']';
  return *this;
}

JsonObject& JsonObject::raw(std::string_view name, const std::string& json) {
  key(name);
  body_ << json;
  return *this;
}

std::string provenance_json() {
  const common::BuildInfo& info = common::build_info();
  return JsonObject()
      .str("version", info.version)
      .str("git_hash", info.git_hash)
      .str("compiler", info.compiler)
      .str("build_type", info.build_type)
      .str("flags", info.flags)
      .str("simd_configured", vec::configured_isa())
      .str("simd_active", vec::active_isa())
      .str("sanitize", PERFBENCH_CBUS_SANITIZE)
      .str();
}

std::string build_guard() {
  const common::BuildInfo& info = common::build_info();
  if (info.build_type == "Debug" || info.build_type == "unspecified") {
    return "a " + std::string(info.build_type) + " build";
  }
  const std::string sanitize = PERFBENCH_CBUS_SANITIZE;
  if (!(sanitize.empty() || sanitize == "OFF" || sanitize == "0" ||
        sanitize == "FALSE" || sanitize == "NO") ||
      info.flags.find("-fsanitize") != std::string_view::npos) {
    return "a sanitizer build (CBUS_SANITIZE=" + sanitize + ")";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer build";
#endif
  if (std::string_view(vec::configured_isa()) == "off" ||
      !vec::engine_enabled()) {
    return "a CBUS_SIMD=off build";
  }
  return {};
}

}  // namespace perfbench
