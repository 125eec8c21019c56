#include "bus/split_bus.hpp"

#include <algorithm>

namespace cbus::bus {

SplitBus::SplitBus(const BusConfig& config, Arbiter& arbiter,
                   SplitSlave& slave)
    : Interconnect("split-bus"),
      config_(config),
      arbiter_(arbiter),
      slave_(slave),
      masters_(config.n_masters),
      pending_(config.n_masters),
      arrival_(config.n_masters, 0),
      outstanding_(config.n_masters, false) {
  CBUS_EXPECTS(config.n_masters >= 1 && config.n_masters <= kMaxMasters);
  CBUS_EXPECTS(arbiter.n_masters() == config.n_masters);
  stats_.master.resize(config.n_masters);
}

void SplitBus::connect_master(MasterId master, BusMaster& callbacks) {
  CBUS_EXPECTS(master < config_.n_masters);
  masters_[master] = MasterLink(callbacks);
}

void SplitBus::request(const BusRequest& request, Cycle now) {
  CBUS_EXPECTS(request.master < config_.n_masters);
  CBUS_EXPECTS_MSG(can_request(request.master),
                   "master already has a transaction in flight");
  wake_for_request(request.master, now);
  BusRequest stamped = request;
  stamped.issued_at = now;
  pending_[request.master] = stamped;
  arrival_[request.master] = now;
  ++stats_.master[request.master].requests;
}

bool SplitBus::has_pending(MasterId master) const {
  CBUS_EXPECTS(master < config_.n_masters);
  return pending_[master].has_value();
}

bool SplitBus::is_outstanding(MasterId master) const {
  CBUS_EXPECTS(master < config_.n_masters);
  if (outstanding_[master]) return true;
  if (phase_ && phase_->master == master) return true;
  if (latched_phase_ && latched_phase_->master == master) return true;
  return false;
}

std::uint32_t SplitBus::pending_mask() const noexcept {
  std::uint32_t mask = 0;
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    if (pending_[m].has_value()) mask |= 1u << m;
  }
  return mask;
}

void SplitBus::start_next_phase(Cycle now) {
  CBUS_ASSERT(!latched_phase_.has_value());

  // Responses first: a ready data phase has priority over new addresses
  // (keeps the slave pipeline draining).
  if (!ready_.empty() && ready_.front().ready_at <= now) {
    const Outstanding out = ready_.front();
    ready_.pop_front();
    Phase phase;
    phase.kind = PhaseKind::kData;
    phase.master = out.request.master;
    phase.remaining = out.data_beats;
    phase.occupancy = out.data_beats;
    phase.request = out.request;
    latched_phase_ = phase;
    stats_.master[phase.master].hold_cycles += out.data_beats;
    return;
  }

  std::uint32_t candidates = pending_mask();
  if (candidates == 0) return;
  if (filter_ != nullptr) candidates = filter_->eligible(candidates, now);
  if (candidates == 0) return;

  const ArbInput input{candidates, std::span<const Cycle>(arrival_),
                       now + 1};
  const MasterId winner = arbiter_.pick(input);
  if (winner == kNoMaster) return;
  CBUS_ASSERT((candidates >> winner) & 1u);
  arbiter_.on_grant(winner, now);
  if (filter_ != nullptr) filter_->on_grant(winner, now);

  wake_watchers(winner, now);  // the winner leaves the pending state
  const BusRequest req = *pending_[winner];
  pending_[winner].reset();
  auto& pm = stats_.master[winner];
  ++pm.grants;
  const Cycle wait = (now + 1) - req.issued_at;
  pm.wait_cycles += wait;
  pm.max_wait = std::max(pm.max_wait, wait);

  const SplitResponse response = slave_.begin_split_transaction(req, now);
  Phase phase;
  phase.master = winner;
  phase.request = req;
  if (response.atomic_hold) {
    CBUS_EXPECTS(response.latency >= 1);
    phase.kind = PhaseKind::kAtomic;
    phase.remaining = response.latency;
    phase.occupancy = response.latency;
    pm.hold_cycles += response.latency;
  } else {
    phase.kind = PhaseKind::kAddress;
    phase.remaining = 1;  // single-cycle address phase
    phase.occupancy = 1;
    pm.hold_cycles += 1;
    Outstanding out;
    out.request = req;
    // Data ready `latency` cycles after the address phase completes.
    out.ready_at = now + 1 + response.latency;
    out.data_beats = std::max<Cycle>(1, response.data_beats);
    in_service_.push_back(out);
    outstanding_[winner] = true;
  }
  latched_phase_ = phase;
}

void SplitBus::finish_phase(Cycle now) {
  CBUS_ASSERT(phase_.has_value());
  const Phase done = *phase_;
  phase_.reset();
  // Post-paid arbiter accounting covers every occupancy phase. The phase
  // length was stashed in the stats at start; recompute from kind.
  switch (done.kind) {
    case PhaseKind::kAddress:
      // Nothing to do: the transaction now sits with the slave.
      break;
    case PhaseKind::kData:
    case PhaseKind::kAtomic: {
      ++stats_.master[done.master].completions;
      outstanding_[done.master] = false;
      if (masters_[done.master].connected()) {
        masters_[done.master].on_complete(done.request, now);
      }
      break;
    }
  }
  arbiter_.on_complete(done.master, done.occupancy);
}

void SplitBus::tick(Cycle now) {
  // Move transactions whose service completed into the ready queue, in
  // ready-time order (FIFO among equals).
  for (auto it = in_service_.begin(); it != in_service_.end();) {
    if (it->ready_at <= now) {
      ready_.push_back(*it);
      it = in_service_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(ready_.begin(), ready_.end(),
            [](const Outstanding& a, const Outstanding& b) {
              return a.ready_at < b.ready_at;
            });

  // A phase latched last cycle takes the bus this cycle.
  if (!phase_.has_value() && latched_phase_.has_value()) {
    phase_ = *latched_phase_;
    latched_phase_.reset();
    if (phase_->kind != PhaseKind::kData &&
        masters_[phase_->master].connected()) {
      masters_[phase_->master].on_grant(phase_->request, now,
                                        phase_->remaining);
    }
  }

  if (filter_ != nullptr) filter_->on_cycle(holder(), now);

  ++stats_.total_cycles;
  if (phase_.has_value()) {
    ++stats_.busy_cycles;
    CBUS_ASSERT(phase_->remaining >= 1);
    --phase_->remaining;
    if (phase_->remaining == 0) {
      finish_phase(now);
      start_next_phase(now);  // overlapped re-arbitration
    }
  } else {
    ++stats_.idle_cycles;
    if (!latched_phase_.has_value()) start_next_phase(now);
  }
}

}  // namespace cbus::bus
