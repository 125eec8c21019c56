#include "bus/segmented.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace cbus::bus {

namespace {

constexpr std::uint32_t kNoBridge = 0xFFFF'FFFFu;

}  // namespace

void SegmentedConfig::validate() const {
  CBUS_EXPECTS_MSG(n_masters >= 1 && n_masters <= kMaxMasters,
                   "segmented interconnect: bad master count");
  CBUS_EXPECTS_MSG(bridge_hold >= 1, "bridge_hold must be positive");
  CBUS_EXPECTS_MSG(stripe_log2 <= 31, "seg_stripe exceeds the address width");
  // Block distribution covers every segment iff there are at least as
  // many masters as segments; fewer would leave segments with no home
  // cores and a skewed home_segment map -- reject instead of silently
  // degenerating.
  CBUS_EXPECTS_MSG(n_masters >= n_segments(),
                   "segmented interconnect needs n_masters >= n_segments "
                   "(every segment needs a home core; got " +
                       std::to_string(n_masters) + " masters for " +
                       std::to_string(n_segments()) + " segments)");
  // Every segment's local master set (home cores + one bridge ingress
  // port per incoming topology edge) must fit the arbiter mask types.
  std::vector<std::uint32_t> cores_per_segment(n_segments(), 0);
  for (MasterId m = 0; m < n_masters; ++m) {
    ++cores_per_segment[home_segment(m)];
  }
  for (std::uint32_t s = 0; s < n_segments(); ++s) {
    CBUS_EXPECTS_MSG(cores_per_segment[s] + topology.in_degree(s) <=
                         kMaxMasters,
                     "segment " + std::to_string(s) +
                         " has too many local masters");
  }
}

SegmentedInterconnect::SegmentedInterconnect(
    const SegmentedConfig& config, BusSlave& slave,
    const ArbiterFactory& make_segment_arbiter)
    : Interconnect("segmented-interconnect"),
      config_(config),
      slave_(slave),
      filters_(config.n_segments(), nullptr),
      home_(config.n_masters),
      slot_(config.n_masters),
      callbacks_(config.n_masters),
      flight_(config.n_masters),
      hop_histogram_(config.topology.diameter() + 1, 0) {
  config_.validate();
  lazy_parts_ = true;  // every segment bus runs on its own clock
  CBUS_EXPECTS_MSG(make_segment_arbiter != nullptr,
                   "segmented interconnect needs an arbiter factory");

  const Topology& topo = config_.topology;
  const std::uint32_t n = topo.n_segments();
  segments_.resize(n);
  for (MasterId m = 0; m < config_.n_masters; ++m) {
    home_[m] = config_.home_segment(m);
    Segment& seg = segments_[home_[m]];
    slot_[m] = static_cast<std::uint32_t>(seg.cores.size());
    seg.cores.push_back(m);
  }

  // One ingress port per incoming edge, in ascending source-segment
  // order (for the chain: from-left before from-right, the historical
  // slot layout).
  for (const TopologyEdge& e : topo.edges()) {
    segments_[e.to].ingress_from.push_back(e.from);
  }
  for (Segment& seg : segments_) {
    std::sort(seg.ingress_from.begin(), seg.ingress_from.end());
  }

  for (std::uint32_t s = 0; s < n; ++s) {
    Segment& seg = segments_[s];
    const std::uint32_t n_local = static_cast<std::uint32_t>(
        seg.cores.size() + seg.ingress_from.size());

    seg.arbiter = make_segment_arbiter(n_local, s);
    CBUS_EXPECTS_MSG(seg.arbiter != nullptr,
                     "segment arbiter factory returned null");
    CBUS_EXPECTS(seg.arbiter->n_masters() == n_local);

    seg.slave = std::make_unique<SegmentSlave>();
    seg.slave->owner = this;
    seg.slave->segment = s;
    seg.bus = std::make_unique<NonSplitBus>(
        BusConfig{n_local, config_.overlapped_arbitration}, *seg.arbiter,
        *seg.slave);

    seg.gate = std::make_unique<SegmentGate>();
    seg.gate->owner = this;
    seg.gate->segment = s;
    seg.bus->set_filter(seg.gate.get());

    seg.relays.reserve(n_local);
    for (std::uint32_t local = 0; local < n_local; ++local) {
      auto relay = std::make_unique<PortRelay>();
      relay->owner = this;
      relay->segment = s;
      relay->local = local;
      seg.bus->connect_master(local, *relay);
      seg.relays.push_back(std::move(relay));
    }
    seg.port_owner.assign(n_local, kNoMaster);
  }

  // One bridge per directed edge, in Topology::edges() order: the
  // delivery order below is part of the determinism contract (for the
  // chain this is the historical (s, direction) order).
  edge_index_.assign(static_cast<std::size_t>(n) * n, kNoBridge);
  for (const TopologyEdge& e : topo.edges()) {
    const Segment& dest = segments_[e.to];
    const auto it = std::find(dest.ingress_from.begin(),
                              dest.ingress_from.end(), e.from);
    CBUS_ASSERT(it != dest.ingress_from.end());
    const std::uint32_t port = static_cast<std::uint32_t>(
        dest.cores.size() + (it - dest.ingress_from.begin()));
    edge_index_[static_cast<std::size_t>(e.from) * n + e.to] =
        static_cast<std::uint32_t>(bridges_.size());
    Bridge bridge;
    bridge.from = e.from;
    bridge.to = e.to;
    bridge.dest_port = port;
    bridge.ring.resize(config_.n_masters);
    bridges_.push_back(std::move(bridge));
  }

  global_.master.resize(config_.n_masters);
}

SegmentedInterconnect::~SegmentedInterconnect() = default;

void SegmentedInterconnect::connect_master(MasterId master,
                                           BusMaster& callbacks) {
  CBUS_EXPECTS(master < config_.n_masters);
  callbacks_[master] = MasterLink(callbacks);
}

void SegmentedInterconnect::request(const BusRequest& request, Cycle now) {
  const MasterId m = request.master;
  CBUS_EXPECTS(m < config_.n_masters);
  CBUS_EXPECTS_MSG(!flight_[m].active,
                   "master already has a transaction in the interconnect");
  wake_for_request(m, now);

  InFlight& entry = flight_[m];
  entry.active = true;
  entry.original = request;
  entry.original.issued_at = now;
  // Forced-hold requests (virtual contenders, trace replay) model
  // synthetic contention on the home segment and never route.
  entry.target = request.forced_hold > 0 ? home_[m]
                                         : config_.route(request.addr);
  entry.hops = 0;

  ++global_.master[m].requests;
  if (observer_ != nullptr) observer_->on_request(entry.original, now);
  raise_hop(home_[m], slot_[m], m, request.forced_hold, now);
}

bool SegmentedInterconnect::has_pending(MasterId master) const {
  CBUS_EXPECTS(master < config_.n_masters);
  return flight_[master].active &&
         segments_[home_[master]].bus->has_pending(slot_[master]);
}

bool SegmentedInterconnect::can_request(MasterId master) const {
  CBUS_EXPECTS(master < config_.n_masters);
  return !flight_[master].active;
}

void SegmentedInterconnect::tick(Cycle now) {
  CBUS_ASSERT(now == clock_ && turn_ == 0);
  // Bridge deliveries first: a request re-raised at cycle t is visible to
  // its segment's arbiter at t, exactly like a core raising in its own
  // tick (cores tick before the interconnect).
  deliver_bridges(now);
  for (; turn_ < segments_.size(); ++turn_) {
    Segment& seg = segments_[turn_];
    if (seg.due > now) continue;  // a countdown, folded when touched
    fold(seg, now);
    seg.bus->tick(now);
    seg.synced = now + 1;
    ++segment_ticks_;
    refresh(turn_);
  }
  turn_ = 0;
  clock_ = now + 1;
}

void SegmentedInterconnect::fold(const Segment& seg, Cycle target) {
  if (target <= seg.synced) return;
  seg.bus->skip(target - seg.synced);
  seg.synced = target;
}

void SegmentedInterconnect::fold_for_write(std::uint32_t s, Cycle now) {
  // Past cycles and, inside tick(now), the segments already visited.
  const bool had_turn = now < clock_ || s < turn_;
  fold(segments_[s], had_turn ? now + 1 : now);
}

void SegmentedInterconnect::refresh(std::uint32_t s) {
  Segment& seg = segments_[s];
  seg.due = hold_current_ || seg.synced == 0
                ? seg.synced
                : seg.bus->next_activity(seg.synced - 1);
  // One stall master-cycle per pending request withheld from arbitration
  // by a full next-hop bridge, at every end of cycle.
  if (config_.bridge_depth > 0) {
    const std::uint32_t stalled = blocked_mask(s, seg.bus->pending_mask());
    seg.stalls.set(static_cast<std::uint64_t>(std::popcount(stalled)), clock_);
  }
}

void SegmentedInterconnect::settle_parts() const {
  if (settled_ == clock_) return;
  for (const Segment& seg : segments_) fold(seg, clock_);
  settled_ = clock_;
}

void SegmentedInterconnect::hold_segments_current() {
  hold_current_ = true;
  for (Segment& seg : segments_) seg.due = std::min(seg.due, seg.synced);
}

Cycle SegmentedInterconnect::next_activity(Cycle now) const {
  Cycle horizon = sim::kNever;
  for (const Segment& seg : segments_) horizon = std::min(horizon, seg.due);
  if (queued_ == 0 || horizon <= now + 1) return horizon;
  for (const Bridge& bridge : bridges_) {
    if (bridge.depth == 0) continue;
    if (segments_[bridge.to].port_owner[bridge.dest_port] != kNoMaster) {
      continue;
    }
    const Cycle ready = bridge.ring[bridge.head].ready;
    horizon = std::min(horizon, std::max(ready, now + 1));
  }
  return horizon;
}

void SegmentedInterconnect::skip(Cycle k) { clock_ += k; }

void SegmentedInterconnect::set_filter(std::uint32_t segment,
                                       EligibilityFilter* filter) {
  CBUS_EXPECTS(segment < config_.n_segments());
  segments_[segment].gate->user = filter;
  filters_[segment] = filter;
}

std::uint32_t SegmentedInterconnect::n_local_masters(
    std::uint32_t segment) const {
  CBUS_EXPECTS(segment < config_.n_segments());
  return segments_[segment].bus->n_masters();
}

std::span<const MasterId> SegmentedInterconnect::segment_cores(
    std::uint32_t segment) const {
  CBUS_EXPECTS(segment < config_.n_segments());
  return segments_[segment].cores;
}

std::uint32_t SegmentedInterconnect::home_segment(MasterId master) const {
  CBUS_EXPECTS(master < config_.n_masters);
  return home_[master];
}

std::uint32_t SegmentedInterconnect::local_slot(MasterId master) const {
  CBUS_EXPECTS(master < config_.n_masters);
  return slot_[master];
}

std::size_t SegmentedInterconnect::bridge_queue_depth(std::uint32_t b) const {
  CBUS_EXPECTS(b < bridges_.size());
  return bridges_[b].depth;
}

std::pair<std::uint32_t, std::uint32_t> SegmentedInterconnect::bridge_route(
    std::uint32_t b) const {
  CBUS_EXPECTS(b < bridges_.size());
  return {bridges_[b].from, bridges_[b].to};
}

std::size_t SegmentedInterconnect::bridge_queue_depth_max(
    std::uint32_t b) const {
  CBUS_EXPECTS(b < bridges_.size());
  return bridges_[b].depth_max;
}

std::uint64_t SegmentedInterconnect::bridge_queue_depth_sum(
    std::uint32_t b) const {
  CBUS_EXPECTS(b < bridges_.size());
  return bridges_[b].depth_sum.sum(clock_);
}

std::uint64_t SegmentedInterconnect::backpressure_stalls(
    std::uint32_t segment) const {
  CBUS_EXPECTS(segment < config_.n_segments());
  return segments_[segment].stalls.sum(clock_);
}

const BusStatistics& SegmentedInterconnect::statistics() const {
  settle();
  view_ = global_;
  for (const Segment& seg : segments_) {
    const BusStatistics& s = seg.bus->statistics();
    view_.busy_cycles += s.busy_cycles;
    view_.idle_cycles += s.idle_cycles;
    view_.total_cycles += s.total_cycles;
  }
  return view_;
}

const BusStatistics& SegmentedInterconnect::segment_statistics(
    std::uint32_t segment) const {
  CBUS_EXPECTS(segment < config_.n_segments());
  settle();
  return segments_[segment].bus->statistics();
}

const Arbiter& SegmentedInterconnect::segment_arbiter(
    std::uint32_t segment) const {
  CBUS_EXPECTS(segment < config_.n_segments());
  return *segments_[segment].arbiter;
}

void SegmentedInterconnect::raise_hop(std::uint32_t segment,
                                      std::uint32_t local, MasterId master,
                                      Cycle forced_hold, Cycle now) {
  fold_for_write(segment, now);
  Segment& seg = segments_[segment];
  CBUS_ASSERT(seg.port_owner[local] == kNoMaster);
  seg.port_owner[local] = master;
  InFlight& entry = flight_[master];
  entry.next_bridge = kNoBridge;
  if (entry.target != segment) {
    const std::uint32_t next = config_.topology.next_hop(segment, entry.target);
    entry.next_bridge = bridge_index(segment, next);
  }

  BusRequest hop;
  hop.master = local;
  hop.addr = entry.original.addr;
  hop.kind = entry.original.kind;
  hop.tag = master;  // the global identity, for debugging/tracing
  hop.forced_hold = forced_hold;
  seg.bus->request(hop, now);
  refresh(segment);
}

void SegmentedInterconnect::deliver_bridges(Cycle now) {
  if (queued_ == 0) return;
  for (Bridge& bridge : bridges_) {
    if (bridge.depth == 0) continue;
    const BridgeEntry head = bridge.ring[bridge.head];
    if (head.ready > now) continue;
    const std::uint32_t port = bridge.dest_port;
    // The ingress port presents one request at a time; the rest of the
    // queue waits (store-and-forward backpressure). port_owner is the
    // authoritative busy flag: the bus's can_request() is briefly true
    // in the latched-grant window (granted, transfer not yet begun),
    // but the port's hop only retires at transfer completion.
    Segment& dest = segments_[bridge.to];
    if (dest.port_owner[port] != kNoMaster) continue;
    CBUS_ASSERT(dest.bus->can_request(port));
    bridge_stats_.queue_cycles += now - head.enqueued;
    raise_hop(bridge.to, port, head.master, /*forced_hold=*/0, now);
    bridge.head = (bridge.head + 1) % bridge.ring.size();
    --bridge.depth;
    --queued_;
    bridge.depth_sum.set(bridge.depth, clock_);
    // The freed slot can admit a request the upstream segment withheld.
    if (config_.bridge_depth > 0) {
      fold_for_write(bridge.from, now);
      refresh(bridge.from);
    }
  }
}

std::uint32_t SegmentedInterconnect::blocked_mask(
    std::uint32_t segment, std::uint32_t candidates) const {
  if (config_.bridge_depth == 0) return 0;
  std::uint32_t mask = 0;
  const Segment& seg = segments_[segment];
  while (candidates != 0) {
    const auto local =
        static_cast<std::uint32_t>(std::countr_zero(candidates));
    candidates &= candidates - 1;
    const MasterId master = seg.port_owner[local];
    if (master == kNoMaster) continue;
    const std::uint32_t next = flight_[master].next_bridge;
    if (next == kNoBridge) continue;  // delivered here, no next hop
    const Bridge& bridge = bridges_[next];
    // Count grant-time reservations too: overlapped arbitration admits
    // the next transfer while the previous one is still in service, so
    // the live queue alone under-reports committed occupancy.
    if (bridge.depth + bridge.reserved >= config_.bridge_depth) {
      mask |= 1u << local;
    }
  }
  return mask;
}

std::uint32_t SegmentedInterconnect::bridge_index(std::uint32_t from,
                                                  std::uint32_t to) const {
  const std::uint32_t b =
      edge_index_[static_cast<std::size_t>(from) * n_segments() + to];
  CBUS_ASSERT(b != kNoBridge);  // routing only crosses topology edges
  return b;
}

MasterId SegmentedInterconnect::owner_of(std::uint32_t segment,
                                         MasterId local) const {
  const MasterId master = segments_[segment].port_owner[local];
  CBUS_ASSERT(master != kNoMaster);
  return master;
}

Cycle SegmentedInterconnect::hop_begin(std::uint32_t segment,
                                       const BusRequest& local_request,
                                       Cycle now) {
  const MasterId master = owner_of(segment, local_request.master);
  const InFlight& entry = flight_[master];
  if (segment == entry.target) {
    // Target segment: the real slave decides, seeing the ORIGINAL
    // request (per-master slave partitions key off the global id).
    return slave_.begin_transaction(entry.original, now);
  }
  return config_.bridge_hold;  // forward beat into the bridge
}

void SegmentedInterconnect::hop_slave_complete(
    std::uint32_t segment, const BusRequest& local_request, Cycle now) {
  const MasterId master = owner_of(segment, local_request.master);
  const InFlight& entry = flight_[master];
  if (segment == entry.target) {
    slave_.complete_transaction(entry.original, now);
  }
}

void SegmentedInterconnect::hop_latched(std::uint32_t segment,
                                        MasterId local, Cycle now) const {
  // A home core's request leaves the pending state (has_pending).
  const Segment& seg = segments_[segment];
  if (local < seg.cores.size()) wake_watchers(seg.cores[local], now);
}

void SegmentedInterconnect::hop_granted(std::uint32_t segment,
                                        MasterId local,
                                        const BusRequest& local_request,
                                        Cycle now, Cycle hold) {
  const MasterId master = owner_of(segment, local);
  InFlight& granted = flight_[master];
  granted.hop_hold = hold;
  // A granted hop that will forward into a bridge reserves its queue
  // slot NOW (the SegmentGate admitted it against queue + reserved);
  // the reservation becomes the real entry in hop_completed.
  if (config_.bridge_depth > 0 && granted.next_bridge != kNoBridge) {
    Bridge& bridge = bridges_[granted.next_bridge];
    ++bridge.reserved;
    CBUS_ASSERT(bridge.depth + bridge.reserved <= config_.bridge_depth);
  }
  auto& pm = global_.master[master];
  pm.hold_cycles += hold;

  // The origin hop (the master's own port on its home segment) carries
  // the request-to-grant wait and the grant count; transit hops only add
  // occupancy.
  if (segment == home_[master] && local == slot_[master]) {
    ++pm.grants;
    const Cycle wait = now - local_request.issued_at;
    pm.wait_cycles += wait;
    pm.max_wait = std::max(pm.max_wait, wait);
    if (observer_ != nullptr) {
      observer_->on_transfer_start(flight_[master].original, now, hold);
    }
    if (callbacks_[master].connected()) {
      callbacks_[master].on_grant(flight_[master].original, now, hold);
    }
  }
}

void SegmentedInterconnect::hop_completed(std::uint32_t segment,
                                          MasterId local,
                                          const BusRequest& /*local_request*/,
                                          Cycle now) {
  const MasterId master = owner_of(segment, local);
  segments_[segment].port_owner[local] = kNoMaster;
  InFlight& entry = flight_[master];

  // A hop served on a FOREIGN segment was charged to nobody there (the
  // bridge-ingress slot is credit-exempt); the origin's home filter pays
  // for it now, so a budget bounds its master's occupancy of the whole
  // interconnect, not just the home segment.
  const std::uint32_t home = home_[master];
  if (segment != home && filters_[home] != nullptr) {
    fold_for_write(home, now);
    filters_[home]->on_remote_occupancy(slot_[master], entry.hop_hold);
    refresh(home);
  }

  if (segment == entry.target) {
    ++global_.master[master].completions;
    ++hop_histogram_[entry.hops];
    if (entry.hops > 0) {
      ++bridge_stats_.remote_transactions;
    } else {
      ++bridge_stats_.local_transactions;
    }
    const BusRequest original = entry.original;
    entry.active = false;  // cleared first: the master may re-raise
    if (observer_ != nullptr) observer_->on_transfer_complete(original, now);
    if (callbacks_[master].connected()) {
      callbacks_[master].on_complete(original, now);
    }
    return;
  }

  // Transit hop done: store-and-forward towards the target along the
  // topology's routed path.
  ++entry.hops;
  ++bridge_stats_.hops;
  Bridge& bridge = bridges_[entry.next_bridge];
  // The grant-time reservation converts into the real queue entry, so a
  // bounded queue never overflows.
  if (config_.bridge_depth > 0) {
    CBUS_ASSERT(bridge.reserved > 0);
    --bridge.reserved;
    CBUS_ASSERT(bridge.depth < config_.bridge_depth);
  }
  CBUS_ASSERT(bridge.depth < bridge.ring.size());
  bridge.ring[(bridge.head + bridge.depth) % bridge.ring.size()] =
      BridgeEntry{master, now + config_.bridge_latency, now};
  ++bridge.depth;
  ++queued_;
  bridge.depth_sum.set(bridge.depth, clock_);
  bridge.depth_max = std::max(bridge.depth_max, bridge.depth);
}

}  // namespace cbus::bus
