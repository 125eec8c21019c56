#include "obs/timeline.hpp"

#include <cmath>
#include <ostream>

#include "bus/segmented.hpp"
#include "common/build_info.hpp"
#include "common/contracts.hpp"
#include "core/credit_state.hpp"
#include "platform/multicore.hpp"

namespace cbus::obs {
namespace {

/// Track-group processes of the rendered trace (see the header comment).
constexpr std::uint32_t kPidMasters = 0;
constexpr std::uint32_t kPidCredit = 1;
constexpr std::uint32_t kPidBridges = 2;
constexpr std::uint32_t kPidDemand = 3;

/// JSON number that round-trips: integers print without a fraction,
/// everything else with enough digits to reconstruct the double.
void write_number(std::ostream& out, double value) {
  if (value == std::floor(value) && std::abs(value) < 9.0e15) {
    out << static_cast<std::int64_t>(value);
  } else {
    const auto flags = out.flags();
    const auto precision = out.precision();
    out.precision(17);
    out << value;
    out.flags(flags);
    out.precision(precision);
  }
}

}  // namespace

Timeline::Timeline() : Timeline(Config{}) {}

Timeline::Timeline(const Config& config)
    : Component("timeline"), config_(config) {
  CBUS_EXPECTS_MSG(config.window_begin < config.window_end,
                   "trace window is empty");
  CBUS_EXPECTS_MSG(config.counter_stride >= 1,
                   "counter stride must be >= 1 cycle");
}

void Timeline::attach(platform::Multicore& machine) {
  CBUS_EXPECTS_MSG(!attached_, "a Timeline traces exactly one run");
  attached_ = true;

  n_masters_ = machine.config().n_cores;
  masters_.resize(n_masters_);
  demand_.emplace(n_masters_, config_.demand_window);

  machine.set_bus_observer(this);
  port_ = &machine.bus_port();
  seg_ = machine.segmented();

  // Per-master credit readers: a master's budget lives in its home
  // segment's filter at its local slot. Non-CBA setups have no credit
  // state and simply get no credit tracks.
  for (MasterId m = 0; m < n_masters_; ++m) {
    const platform::CreditSlot credit = machine.credit_of(m);
    if (credit.state == nullptr) break;
    credit_.push_back({credit.state, credit.slot});
  }

  const auto named = [](const char* prefix, std::uint32_t n) {
    std::string name(prefix);
    name += std::to_string(n);
    return name;
  };
  for (MasterId m = 0; m < n_masters_; ++m) {
    if (!credit_.empty()) {
      credit_track_.push_back(make_track(kPidCredit, named("credit m", m)));
      eligible_track_.push_back(
          make_track(kPidCredit, named("eligible m", m)));
    }
    demand_track_.push_back(make_track(kPidDemand, named("demand m", m)));
  }
  if (seg_ != nullptr) {
    for (std::uint32_t b = 0; b < seg_->n_bridges(); ++b) {
      const auto [from, to] = seg_->bridge_route(b);
      std::string name = named("bridge s", from);
      name += "->s";
      name += std::to_string(to);
      bridge_track_.push_back(make_track(kPidBridges, std::move(name)));
    }
  }

  // Registered last: every poll observes the cycle's settled state.
  machine.kernel().add(*this);
}

void Timeline::on_request(const bus::BusRequest& request, Cycle now) {
  if (request.master >= n_masters_) return;
  demand_->record(request.master, now);
  registry_.counter("trace.requests").add();
  if (!in_window(now)) return;
  MasterState& ms = masters_[request.master];
  ms.waiting = true;
  ms.issued = now;
}

void Timeline::on_transfer_start(const bus::BusRequest& request, Cycle start,
                                 Cycle /*hold*/) {
  if (request.master >= n_masters_) return;
  MasterState& ms = masters_[request.master];
  if (ms.waiting) {
    // ms.waiting is only ever set inside the window, so the wait span's
    // start is in-window by construction.
    if (start > ms.issued) {
      spans_.push_back({ms.issued, start - ms.issued, request.master, false,
                        request.addr, request.kind});
      registry_.counter("trace.spans").add();
    }
    ms.waiting = false;
  }
  if (!in_window(start)) return;
  ms.transferring = true;
  ms.started = start;
  ms.addr = request.addr;
  ms.op = request.kind;
}

void Timeline::on_transfer_complete(const bus::BusRequest& request,
                                    Cycle end) {
  if (request.master >= n_masters_) return;
  MasterState& ms = masters_[request.master];
  if (!ms.transferring) return;
  // The bus releases at the END of cycle `end`, so the span covers
  // [started, end] inclusive.
  spans_.push_back({ms.started, end + 1 - ms.started, request.master, true,
                    ms.addr, ms.op});
  registry_.counter("trace.spans").add();
  ms.transferring = false;
}

void Timeline::tick(Cycle now) {
  if (!in_window(now)) return;
  // The interconnect (and each segment bus behind it) runs on its own
  // clock: bring the credit filters up to this cycle before reading.
  port_->settle();
  // Underflow clamps are instants, polled every cycle so none is missed;
  // they only ever fire on mis-configured MaxL, so the compare stays cold.
  for (MasterId m = 0; m < static_cast<MasterId>(credit_.size()); ++m) {
    const std::uint64_t clamps =
        credit_[m].state->underflow_clamps(credit_[m].slot);
    if (clamps != masters_[m].last_underflows) {
      masters_[m].last_underflows = clamps;
      instants_.push_back({now, m});
      registry_.counter("trace.instants").add();
    }
  }
  if (now % config_.counter_stride == 0) poll_counters(now);
}

void Timeline::poll_counters(Cycle now) {
  for (MasterId m = 0; m < static_cast<MasterId>(credit_.size()); ++m) {
    const CreditSource& src = credit_[m];
    sample(credit_track_[m], now, src.state->budget_cycles(src.slot));
    sample(eligible_track_[m], now, src.state->eligible(src.slot) ? 1.0 : 0.0);
  }
  for (MasterId m = 0; m < n_masters_; ++m) {
    sample(demand_track_[m], now,
           static_cast<double>(demand_->demand(m, now)));
  }
  if (seg_ != nullptr) {
    for (std::uint32_t b = 0; b < seg_->n_bridges(); ++b) {
      sample(bridge_track_[b], now,
             static_cast<double>(seg_->bridge_queue_depth(b)));
    }
  }
}

void Timeline::sample(std::uint32_t track, Cycle now, double value) {
  Track& t = tracks_[track];
  if (t.last == value) return;  // emit-on-change keeps traces compact
  t.last = value;
  samples_.push_back({now, track, value});
  registry_.counter("trace.counter_samples").add();
}

std::uint32_t Timeline::make_track(std::uint32_t pid, std::string name) {
  tracks_.push_back({pid, std::move(name),
                     std::numeric_limits<double>::quiet_NaN()});
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

std::size_t Timeline::event_count() const noexcept {
  return spans_.size() + samples_.size() + instants_.size();
}

void Timeline::write_json(std::ostream& out) const {
  out << "{\n\"displayTimeUnit\": \"ms\",\n\"metadata\": {\"provenance\": ";
  common::write_build_info_json(out);
  out << ", \"clock\": \"1 ts unit = 1 bus cycle\"},\n\"traceEvents\": [\n";

  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };

  // Track naming metadata: processes for the four groups, one named
  // thread per master under pid 0.
  static constexpr struct {
    std::uint32_t pid;
    const char* name;
  } kProcesses[] = {{kPidMasters, "bus masters"},
                    {kPidCredit, "credit (cycles)"},
                    {kPidBridges, "bridge queues"},
                    {kPidDemand, "demand"}};
  for (const auto& p : kProcesses) {
    sep();
    out << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " << p.pid
        << ", \"args\": {\"name\": \"" << p.name << "\"}}";
  }
  for (MasterId m = 0; m < n_masters_; ++m) {
    sep();
    out << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": "
        << kPidMasters << ", \"tid\": " << m
        << ", \"args\": {\"name\": \"master m" << m << "\"}}";
  }

  for (const Span& s : spans_) {
    sep();
    out << "{\"ph\": \"X\", \"name\": \"" << (s.transfer ? "xfer" : "wait")
        << "\", \"pid\": " << kPidMasters << ", \"tid\": " << s.master
        << ", \"ts\": " << s.ts << ", \"dur\": " << s.dur
        << ", \"args\": {\"op\": \"" << to_string(s.op) << "\", \"addr\": "
        << s.addr << "}}";
  }
  for (const Sample& s : samples_) {
    const Track& t = tracks_[s.track];
    sep();
    out << "{\"ph\": \"C\", \"name\": \"" << t.name << "\", \"pid\": "
        << t.pid << ", \"tid\": 0, \"ts\": " << s.ts
        << ", \"args\": {\"value\": ";
    write_number(out, s.value);
    out << "}}";
  }
  for (const Instant& i : instants_) {
    sep();
    out << "{\"ph\": \"i\", \"s\": \"t\", \"name\": \"credit.underflow\", "
           "\"pid\": "
        << kPidMasters << ", \"tid\": " << i.master << ", \"ts\": " << i.ts
        << "}";
  }

  out << "\n]\n}\n";
}

}  // namespace cbus::obs
