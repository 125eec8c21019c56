#include "cpu/in_order_core.hpp"

#include <string>

#include "common/contracts.hpp"

namespace cbus::cpu {

InOrderCore::InOrderCore(MasterId id, const CoreConfig& config,
                         OpStream& stream, bus::BusPort& bus,
                         rng::RandBank& bank)
    : sim::Component("core-" + std::to_string(id)),
      id_(id),
      config_(config),
      stream_(stream),
      bus_(bus),
      store_buffer_(config.store_buffer_depth) {
  config_.validate();
  dl1_ = std::make_unique<cache::SetAssocCache>(
      config_.dl1, bank, "core" + std::to_string(id) + ".dl1");
  bus_.connect_master(id_, *this);
  advance_stream();
}

void InOrderCore::advance_stream() {
  current_op_ = stream_.next();
  miss_recorded_ = false;
  if (current_op_.has_value()) {
    compute_remaining_ = current_op_->compute_before;
    ++stats_.ops;
  }
}

void InOrderCore::drain_store_buffer(Cycle now) {
  if (store_buffer_.empty() || store_in_flight_ || waiting_ != Wait::kNone) {
    return;
  }
  if (!bus_.can_request(id_)) return;
  bus::BusRequest req;
  req.master = id_;
  req.addr = store_buffer_.front();
  req.kind = MemOpKind::kStore;
  bus_.request(req, now);
  store_in_flight_ = true;
  ++stats_.bus_requests;
}

void InOrderCore::tick(Cycle now) {
  if (done_) return;
  ++stats_.cycles;

  // Blocked on an outstanding load/atomic: nothing else can proceed
  // (single bus port, in-order pipeline).
  if (waiting_ != Wait::kNone) {
    ++stats_.bus_stall_cycles;
    return;
  }

  // Background write-buffer drain overlaps compute.
  drain_store_buffer(now);

  if (compute_remaining_ > 0) {
    --compute_remaining_;
    ++stats_.compute_cycles;
    return;
  }

  if (!current_op_.has_value()) {
    // Stream finished: wait for the write buffer to empty out.
    if (store_buffer_.empty() && !store_in_flight_) {
      done_ = true;
      finish_cycle_ = now;
    } else {
      ++stats_.bus_stall_cycles;
    }
    return;
  }

  const MemOp& op = *current_op_;
  switch (op.kind) {
    case MemOpKind::kLoad: {
      if (store_buffer_.contains_line(op.addr, config_.dl1.line_bytes)) {
        // Store-to-load forwarding from the write buffer: 1 cycle.
        ++stats_.l1_hits;
        advance_stream();
        return;
      }
      if (!miss_recorded_) {
        // First attempt: look up (and on a miss immediately reserve the
        // line -- only this core touches its private L1, and the pipeline
        // is blocked until the data returns anyway).
        const cache::AccessResult result =
            dl1_->access(op.addr, /*allocate_on_miss=*/true,
                         /*mark_dirty=*/false);
        if (result.hit) {
          ++stats_.l1_hits;
          advance_stream();
          return;
        }
        ++stats_.l1_misses;
        miss_recorded_ = true;
      }
      // Write-through ordering: the miss may only go out once every older
      // buffered store has drained.
      if (!store_buffer_.empty() || store_in_flight_) {
        ++stats_.bus_stall_cycles;
        return;
      }
      bus::BusRequest req;
      req.master = id_;
      req.addr = op.addr;
      req.kind = MemOpKind::kLoad;
      bus_.request(req, now);
      ++stats_.bus_requests;
      waiting_ = Wait::kLoad;
      ++stats_.bus_stall_cycles;
      return;
    }
    case MemOpKind::kStore: {
      if (store_buffer_.full()) {
        ++stats_.sb_stall_cycles;
        return;  // drain_store_buffer above is working on it
      }
      // Write-through, no write-allocate: the L1 is only updated on a hit.
      dl1_->access(op.addr, /*allocate_on_miss=*/false, /*mark_dirty=*/false);
      store_buffer_.push(op.addr);
      ++stats_.stores;
      advance_stream();
      return;
    }
    case MemOpKind::kAtomic: {
      // Atomics are ordering points: drain the write buffer first.
      if (!store_buffer_.empty() || store_in_flight_) {
        ++stats_.bus_stall_cycles;
        return;
      }
      bus::BusRequest req;
      req.master = id_;
      req.addr = op.addr;
      req.kind = MemOpKind::kAtomic;
      bus_.request(req, now);
      ++stats_.bus_requests;
      ++stats_.atomics;
      waiting_ = Wait::kAtomic;
      ++stats_.bus_stall_cycles;
      return;
    }
  }
  CBUS_ASSERT(false);
}

Cycle InOrderCore::next_activity(Cycle now) const {
  if (done_ || waiting_ != Wait::kNone) return sim::kNever;
  // A buffered store not yet on the bus tries to drain every cycle.
  if (!store_buffer_.empty() && !store_in_flight_) return now + 1;
  if (compute_remaining_ > 0) return now + 1 + compute_remaining_;
  // From here on every quiet case is a stall behind the store in flight.
  if (!store_in_flight_) return now + 1;
  if (!current_op_.has_value()) return sim::kNever;
  switch (current_op_->kind) {
    case MemOpKind::kLoad:
      return miss_recorded_ && !store_buffer_.contains_line(
                                   current_op_->addr, config_.dl1.line_bytes)
                 ? sim::kNever
                 : now + 1;
    case MemOpKind::kStore:
      return store_buffer_.full() ? sim::kNever : now + 1;
    case MemOpKind::kAtomic:
      return sim::kNever;
  }
  return now + 1;
}

void InOrderCore::skip(Cycle k) {
  if (done_) return;
  stats_.cycles += k;
  if (waiting_ == Wait::kNone && compute_remaining_ > 0) {
    CBUS_ASSERT(compute_remaining_ >= k);
    compute_remaining_ -= static_cast<std::uint32_t>(k);
    stats_.compute_cycles += k;
  } else if (waiting_ == Wait::kNone && current_op_.has_value() &&
             current_op_->kind == MemOpKind::kStore) {
    stats_.sb_stall_cycles += k;
  } else {
    stats_.bus_stall_cycles += k;
  }
}

void InOrderCore::on_grant(const bus::BusRequest& /*request*/, Cycle /*now*/,
                           Cycle /*hold*/) {}

void InOrderCore::on_complete(const bus::BusRequest& request, Cycle /*now*/) {
  if (store_in_flight_ && request.kind == MemOpKind::kStore) {
    store_buffer_.pop();
    store_in_flight_ = false;
    return;
  }
  CBUS_ASSERT(waiting_ != Wait::kNone);
  waiting_ = Wait::kNone;
  advance_stream();  // the blocking op has retired; move on
}

}  // namespace cbus::cpu
