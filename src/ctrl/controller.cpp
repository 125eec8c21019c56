#include "ctrl/controller.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"

namespace cbus::ctrl {

namespace {

constexpr std::uint32_t kBuckets = 16;  ///< demand-window ring slots
constexpr Cycle kMinWindow = 16;        ///< one bucket per cycle at least
constexpr Cycle kMaxWindow = 1u << 30;
/// Every master keeps at least this recovery rate (the ABR minimum cell
/// rate): an idle master must stay able to raise demand the window can
/// then see.
constexpr std::uint64_t kMcr = 1;

// User-facing value errors throw plain invalid_argument (no contract
// macro prefix) so CLI and config-file diagnostics render verbatim.
[[noreturn]] void bad_value(std::string_view what, std::string_view text) {
  throw std::invalid_argument("bad controller " + std::string(what) + ": '" +
                              std::string(text) + "'");
}

[[nodiscard]] std::uint64_t parse_number(std::string_view text,
                                         std::string_view what) {
  if (text.empty() ||
      !std::isdigit(static_cast<unsigned char>(text.front()))) {
    bad_value(what, text);
  }
  std::size_t used = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(std::string(text), &used, 10);
  } catch (const std::exception&) {
    bad_value(what, text);
  }
  if (used != text.size()) bad_value(what, text);
  return value;
}

[[nodiscard]] double parse_gain(std::string_view text) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(std::string(text), &used);
  } catch (const std::exception&) {
    bad_value("gain", text);
  }
  if (used != text.size() || !std::isfinite(value)) bad_value("gain", text);
  return value;
}

}  // namespace

std::string_view to_string(ControllerKind kind) noexcept {
  switch (kind) {
    case ControllerKind::kStatic: return "static";
    case ControllerKind::kAdaptive: return "adaptive";
  }
  return "?";
}

std::string_view short_name(ControllerKind kind) noexcept {
  return to_string(kind);
}

std::span<const ControllerKind> all_controller_kinds() noexcept {
  static constexpr std::array<ControllerKind, 2> kKinds{
      ControllerKind::kStatic, ControllerKind::kAdaptive};
  return kKinds;
}

std::string known_controller_list() {
  std::string list;
  for (const ControllerKind kind : all_controller_kinds()) {
    if (!list.empty()) list += ' ';
    list += short_name(kind);
  }
  return list;
}

void ControllerConfig::validate() const {
  if (window < kMinWindow || window > kMaxWindow) {
    throw std::invalid_argument("controller window must be in [" +
                                std::to_string(kMinWindow) +
                                ", 2^30] cycles");
  }
  if (!(gain > 0.0 && gain <= 1.0)) {
    throw std::invalid_argument("controller gain must be in (0, 1]");
  }
  if (!(deadband >= 0.0 && deadband < 1.0)) {
    throw std::invalid_argument("controller deadband must be in [0, 1)");
  }
}

ControllerConfig parse_controller(std::string_view text) {
  ControllerConfig config;
  if (text == "static") return config;

  std::string_view head = text;
  std::string_view params;
  if (const auto colon = text.find(':'); colon != std::string_view::npos) {
    head = text.substr(0, colon);
    params = text.substr(colon + 1);
  }
  // A plain invalid_argument, not a contract macro: this is a
  // user-facing value error and renders verbatim in CLI/config
  // diagnostics, like the arbiter and setup parsers.
  if (head != "adaptive") {
    throw std::invalid_argument(
        "unknown controller '" + std::string(text) + "' (known: " +
        known_controller_list() + "; adaptive takes :<window>[:<gain>])");
  }
  config.kind = ControllerKind::kAdaptive;
  if (!params.empty()) {
    std::string_view window_text = params;
    if (const auto colon = params.find(':');
        colon != std::string_view::npos) {
      window_text = params.substr(0, colon);
      config.gain = parse_gain(params.substr(colon + 1));
    }
    config.window = parse_number(window_text, "window");
  }
  config.validate();
  return config;
}

std::string to_config_string(const ControllerConfig& config) {
  if (!config.adaptive()) return "static";
  std::string text = "adaptive:" + std::to_string(config.window);
  // Trim the gain like "%g" would so the value round-trips compactly.
  std::string gain = std::to_string(config.gain);
  gain.erase(gain.find_last_not_of('0') + 1);
  if (!gain.empty() && gain.back() == '.') gain.pop_back();
  return text + ':' + gain;
}

std::vector<double> fair_shares(std::span<const double> demand,
                                std::span<const double> weight,
                                double capacity) {
  CBUS_EXPECTS(capacity >= 0.0);
  CBUS_EXPECTS(weight.empty() || weight.size() == demand.size());
  const std::size_t n = demand.size();
  std::vector<double> share(n, 0.0);
  std::vector<bool> capped(n, false);
  double remaining = capacity;

  // Iterative fair share: repeatedly cap every master whose demand is
  // below its weighted split of the remaining capacity, then re-split
  // what is left among the rest. Each pass caps at least one master, so
  // the loop runs at most n times.
  for (std::size_t pass = 0; pass < n; ++pass) {
    double active_weight = 0.0;
    for (std::size_t m = 0; m < n; ++m) {
      if (!capped[m]) active_weight += weight.empty() ? 1.0 : weight[m];
    }
    if (active_weight <= 0.0) break;
    bool capped_one = false;
    for (std::size_t m = 0; m < n; ++m) {
      if (capped[m]) continue;
      const double w = weight.empty() ? 1.0 : weight[m];
      CBUS_EXPECTS_MSG(w > 0.0, "fair_shares weights must be positive");
      const double split = remaining * w / active_weight;
      if (demand[m] <= split) {
        share[m] = std::max(0.0, demand[m]);
        capped[m] = true;
        capped_one = true;
      }
    }
    if (!capped_one) {
      // Every remaining master demands at least its split: bottleneck
      // reached, hand each its weighted share of what is left.
      for (std::size_t m = 0; m < n; ++m) {
        if (!capped[m]) {
          share[m] = remaining * (weight.empty() ? 1.0 : weight[m]) /
                     active_weight;
        }
      }
      return share;
    }
    remaining = capacity;
    for (std::size_t m = 0; m < n; ++m) {
      if (capped[m]) remaining -= share[m];
    }
    remaining = std::max(0.0, remaining);
  }
  return share;
}

AdaptiveController::AdaptiveController(const ControllerConfig& config,
                                       core::CreditState& credits,
                                       const bus::BusStatistics& bus_stats)
    : CreditController("ctrl.adaptive"),
      config_(config),
      credits_(&credits),
      bus_stats_(&bus_stats),
      demand_(credits.config().n_masters, config.window, kBuckets) {
  CBUS_EXPECTS_MSG(config_.adaptive(),
                   "AdaptiveController needs an adaptive config");
  config_.validate();
  const core::CbaConfig& cba = credits_->config();
  CBUS_EXPECTS_MSG(cba.scale >= cba.n_masters * kMcr,
                   "controller = adaptive needs scale >= n_masters (every "
                   "master keeps a 1-unit recovery floor)");
  // DemandWindow rounds the window up to a bucket multiple; adopt its
  // geometry so samples land exactly one per bucket.
  config_.window = demand_.window();
  bucket_width_ = config_.window / kBuckets;
  sample_countdown_ = bucket_width_;
  buckets_left_ = kBuckets;
  busy_snapshot_.assign(cba.n_masters, 0);
  rates_.assign(cba.increment.begin(), cba.increment.end());
  applied_ = cba.increment;
}

std::vector<std::uint64_t> AdaptiveController::increments() const {
  return applied_;
}

void AdaptiveController::tick(Cycle now) {
  if (--sample_countdown_ > 0) return;
  sample_countdown_ = bucket_width_;
  sample(now);
  if (--buckets_left_ > 0) return;
  buckets_left_ = kBuckets;
  epoch(now);
}

void AdaptiveController::sample(Cycle now) {
  // Demand signal: cycles the master spent wanting or holding the bus
  // since the last sample. wait_cycles is credited at grant time, so a
  // long ineligibility stall lands as one lump -- the bucketed window
  // smooths it, and the per-epoch rate is clamped below.
  settle_bus();
  const auto& masters = bus_stats_->master;
  for (std::size_t m = 0; m < busy_snapshot_.size(); ++m) {
    const Cycle busy = masters.size() > m
                           ? masters[m].wait_cycles + masters[m].hold_cycles
                           : 0;
    const Cycle delta = busy - std::min(busy, busy_snapshot_[m]);
    if (delta > 0) demand_.record(static_cast<MasterId>(m), now, delta);
    busy_snapshot_[m] = busy;
  }
}

void AdaptiveController::epoch(Cycle now) {
  const core::CbaConfig& cba = credits_->config();
  const std::size_t n = cba.n_masters;
  const double scale = static_cast<double>(cba.scale);
  ++stats_.epochs;

  // Windowed demand in occupancy units/cycle, floored at the MCR so a
  // momentarily idle master keeps its ramp-up reserve, and capped at the
  // full bus (lumpy wait credits can exceed the window).
  std::vector<double> wanted(n);
  for (std::size_t m = 0; m < n; ++m) {
    const double rate =
        static_cast<double>(demand_.demand(static_cast<MasterId>(m), now)) /
        static_cast<double>(config_.window);
    wanted[m] = std::clamp(rate * scale, static_cast<double>(kMcr), scale);
  }

  // The Fahmy/Jain explicit-rate step: weighted max-min over the demand,
  // capacity = the full recovery budget (scale units/cycle).
  targets_ = fair_shares(wanted, {}, scale);

  // Hysteresis: leave the rates alone while every gap to the new target
  // is inside the deadband -- measurement ripple near saturation must
  // not wiggle the increments.
  double gap = 0.0;
  for (std::size_t m = 0; m < n; ++m) {
    gap = std::max(gap, std::abs(targets_[m] - rates_[m]));
  }
  if (gap > config_.deadband * scale) {
    for (std::size_t m = 0; m < n; ++m) {
      rates_[m] += config_.gain * (targets_[m] - rates_[m]);
    }
    ++stats_.updates;
    stats_.convergence_cycles = now + 1;  // end of this epoch
  }
  stats_.steady_error = 0.0;
  for (std::size_t m = 0; m < n; ++m) {
    stats_.steady_error += std::abs(targets_[m] - rates_[m]) / scale;
  }

  // Integerize: floor each rate (>= 1 by the MCR floor), then hand the
  // leftover whole units to the largest remainders. Ties rotate with the
  // epoch index so a fractional fair share time-averages across masters
  // instead of parking on the lowest index forever.
  std::uint64_t total = 0;
  double rate_sum = 0.0;
  for (const double r : rates_) rate_sum += r;
  const auto budget = static_cast<std::uint64_t>(
      std::min(scale, std::round(rate_sum)));
  std::vector<std::uint64_t> next(n);
  std::vector<std::size_t> order(n);
  for (std::size_t m = 0; m < n; ++m) {
    next[m] = std::max<std::uint64_t>(
        kMcr, static_cast<std::uint64_t>(std::floor(rates_[m])));
    total += next[m];
    order[m] = m;
  }
  const std::size_t offset = static_cast<std::size_t>(epoch_index_ % n);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const double ra = rates_[a] - std::floor(rates_[a]);
                     const double rb = rates_[b] - std::floor(rates_[b]);
                     if (ra != rb) return ra > rb;
                     return (a + n - offset) % n < (b + n - offset) % n;
                   });
  for (std::size_t i = 0; total < budget && i < n; ++i) {
    const std::size_t m = order[i];
    if (next[m] < cba.scale) {
      ++next[m];
      ++total;
    }
  }
  // Over-subscription from the MCR floors: shave the largest increments
  // (ties rotate the same way) until recovery fits the bus again.
  for (std::size_t i = 0; total > cba.scale && i < n * n; ++i) {
    std::size_t victim = n;
    for (const std::size_t m : order) {
      if (next[m] > kMcr && (victim == n || next[m] > next[victim])) {
        victim = m;
      }
    }
    if (victim == n) break;
    --next[victim];
    --total;
  }

  // The bus's and the contenders' horizons read the increments: fold
  // them under the old ones first.
  if (next != applied_) wake_readers(now);
  for (std::size_t m = 0; m < n; ++m) {
    if (next[m] != applied_[m]) {
      credits_->set_increment(static_cast<MasterId>(m), next[m]);
      applied_[m] = next[m];
    }
  }
  ++epoch_index_;
}

std::unique_ptr<CreditController> make_controller(
    const ControllerConfig& config, core::CreditState& credits,
    const bus::BusStatistics& bus_stats) {
  if (config.adaptive()) {
    return std::make_unique<AdaptiveController>(config, credits, bus_stats);
  }
  return std::make_unique<StaticController>(credits);
}

}  // namespace cbus::ctrl
