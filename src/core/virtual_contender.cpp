#include "core/virtual_contender.hpp"

#include "common/contracts.hpp"

namespace cbus::core {

VirtualContender::VirtualContender(const VirtualContenderConfig& config,
                                   bus::BusPort& bus,
                                   const CreditState* credits)
    : sim::Component("contender-" + std::to_string(config.self)),
      config_(config),
      bus_(bus),
      credits_(credits) {
  CBUS_EXPECTS(config.self != config.tua);
  CBUS_EXPECTS(config.hold >= 1);
  CBUS_EXPECTS_MSG(
      config.policy == ContenderPolicy::kAlwaysCompete || credits != nullptr,
      "the COMP latch needs the credit state to watch BUDGi");
  bus_.connect_master(config_.self, *this);
  // The COMP latch reads REQ1: a TuA request or grant must wake it.
  if (config_.policy == ContenderPolicy::kCompLatch) {
    bus_.watch_pending(config_.tua, *this);
  }
}

bool VirtualContender::budget_full() const {
  if (credits_ == nullptr) return true;
  bus_.settle();  // BUDGi may sit behind a lazily clocked segment
  return credits_->saturated(credit_slot());
}

void VirtualContender::tick(Cycle now) {
  if (config_.policy == ContenderPolicy::kCompLatch) {
    // COMPi <= 1 when BUDGi saturated and the TuA has a request pending.
    if (!comp_ && budget_full() && bus_.has_pending(config_.tua)) {
      comp_ = true;
    }
  } else {
    comp_ = true;  // always compete
  }

  if (comp_ && bus_.can_request(config_.self)) {
    bus::BusRequest req;
    req.master = config_.self;
    req.kind = MemOpKind::kLoad;
    req.forced_hold = config_.hold;  // keep the bus busy for MaxL cycles
    bus_.request(req, now);
  }
}

Cycle VirtualContender::next_activity(Cycle now) const {
  const bool latched =
      comp_ || config_.policy == ContenderPolicy::kAlwaysCompete;
  if (latched) return bus_.can_request(config_.self) ? now + 1 : sim::kNever;
  if (!bus_.has_pending(config_.tua)) return sim::kNever;
  if (credits_ == nullptr) return now + 1;
  // Cycle now + 1 + j reads BUDGi after j more recovery ticks. Holding
  // the bus only lowers BUDGi, so assuming recovery is early, never late.
  const MasterId slot = credit_slot();
  bus_.settle();
  return sim::horizon_after(
      now + 1,
      credits_->recovery_cycles(slot, credits_->config().saturation[slot]));
}

void VirtualContender::skip(Cycle /*k*/) {
  if (config_.policy == ContenderPolicy::kAlwaysCompete) comp_ = true;
}

void VirtualContender::on_grant(const bus::BusRequest& /*request*/,
                                Cycle /*now*/, Cycle /*hold*/) {
  // COMPi is reset whenever core i is granted access to the bus (Table I).
  comp_ = false;
  ++grants_;
}

void VirtualContender::on_complete(const bus::BusRequest& /*request*/,
                                   Cycle /*now*/) {}

}  // namespace cbus::core
