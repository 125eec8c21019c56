// SegmentedInterconnect: bus segments joined by store-and-forward
// bridges -- the multi-contention-point generalisation of the paper's
// single bus (ROADMAP "multi-segment/NoC-style interconnects").
//
// The shape of the interconnect is a bus::Topology graph (chain, ring or
// 2D mesh; see topology.hpp): segments are nodes, bridges are directed
// edges, and each topology supplies a deterministic next-hop routing
// function. Every global master (core) is attached to a *home segment*;
// the address space is interleaved across segments in
// `2^stripe_log2`-byte ranges, and a request targets the segment owning
// its address range:
//
//   core m (home h) --> segment h --> [bridge]* --> segment t --> slave
//
//  * On its home segment the request competes under that segment's OWN
//    arbiter instance (any registered policy) and OWN eligibility filter
//    (per-segment CBA credit accounting) -- the single-bus protocol
//    contract (1-cycle arbitration, overlapped re-arbitration, at most
//    one outstanding request per master) holds per segment, unchanged.
//  * If the target is local (`t == h`), the slave decides the hold time
//    exactly as on the single bus.
//  * Otherwise the transfer occupies the local segment for `bridge_hold`
//    cycles (the forward beat into the bridge), sits `bridge_latency`
//    cycles in the store-and-forward buffer, then re-arbitrates on the
//    next segment as that segment's bridge-ingress master -- hop by hop
//    along the topology's routed path until the target segment, where
//    the slave is consulted. The response path is folded into the hold
//    times (the originating master is notified when the target-segment
//    transfer completes).
//  * Forced-hold requests (WCET-mode virtual contenders, trace replay)
//    never route: they model synthetic contention on the master's home
//    segment, mirroring the paper's Table-I setup per segment.
//
// Bridge queues are unbounded by default (`bridge_depth = 0`: the model
// studies bandwidth shares, not buffer sizing). With a bounded
// `bridge_depth`, a full downstream queue exerts *backpressure*: any
// request whose routed next hop would enqueue into a full bridge is
// withheld from arbitration (masked out of grant eligibility, exactly
// like an exhausted credit budget), and a blocked bridge-ingress
// occupant keeps its port busy -- which stalls the upstream bridge head
// in turn, so congestion propagates hop-by-hop instead of accumulating
// in infinite buffers. Admission is a grant-time RESERVATION: winning a
// segment's arbitration reserves one slot in the routed next-hop bridge
// (overlapped arbitration grants while the previous transfer is still
// in service, so testing the live queue alone would leak admissions),
// and the reservation converts into the real queue entry when the
// forward beat completes. queued + reserved never exceeds the bound, so
// no entry is ever dropped or reordered. Caveat: bounded queues on a
// cyclic route CAN deadlock -- on a bounded ring, sustained multi-hop
// traffic can fill every forward bridge while each ingress occupant
// waits on the next full one (docs/TOPOLOGIES.md, pinned by
// RingDeadlock.* in tests/test_skip.cpp). `mesh` XY routing is
// deadlock-free; size `bridge_depth` against the traffic's hop pattern.
//
// Clocks: every segment bus runs on its own clock. tick(now) delivers
// the ready bridge heads and then ticks, in segment order, only the
// segments whose horizon (`due`, the bus's next_activity) has arrived;
// every other segment is a pure countdown and is folded later, in one
// skip(), when something touches it. A write into segment s from
// outside its own tick -- a raise, a remote-occupancy charge to its home
// filter, a bridge pop that can unblock it -- first folds s up to the
// write's cycle: up to `now` if s has not had its turn in cycle `now`
// yet, through `now` if it has (credit recovery saturates at its cap, so
// the fold does not commute with a charge). skip(k) is O(1), and the
// per-cycle accounting (bridge depth sums, backpressure stalls) is kept
// as level x elapsed cycles, added at each change. Readers that look at
// segment state the interconnect does not own (credit filters, segment
// statistics) call settle() first, which folds every segment up to the
// interconnect's clock -- results are identical to ticking every segment
// every cycle, which hold_segments_current() still does (the reference
// tests/test_skip.cpp compares the per-segment clocks against).
//
// All state is per-instance, so a replica is lane-safe under
// sim::BatchKernel and batched campaigns stay bit-identical to serial --
// for every topology.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bus/arbiter.hpp"
#include "bus/bus.hpp"
#include "bus/interfaces.hpp"
#include "bus/request.hpp"
#include "bus/topology.hpp"
#include "common/contracts.hpp"
#include "common/types.hpp"
#include "sim/component.hpp"

namespace cbus::bus {

struct SegmentedConfig {
  std::uint32_t n_masters = 4;  ///< global bus masters (cores)
  /// Interconnect graph (chain:<n> reproduces the legacy linear chain
  /// cycle-exactly; see topology.hpp for ring/mesh routing rules).
  Topology topology = Topology::chain(2);
  bool overlapped_arbitration = true;

  /// Cycles a forwarded request occupies the segment it leaves (the
  /// forward beat into the bridge; an L2-hit-sized transfer by default).
  Cycle bridge_hold = 5;
  /// Store-and-forward buffering delay per hop, in cycles.
  Cycle bridge_latency = 2;
  /// Address interleave: route(addr) = (addr >> stripe_log2) % n_segments.
  std::uint32_t stripe_log2 = 12;
  /// Bridge queue bound; 0 = unbounded (the legacy behavior). A full
  /// queue withholds grant eligibility upstream (backpressure).
  std::uint32_t bridge_depth = 0;

  [[nodiscard]] std::uint32_t n_segments() const noexcept {
    return topology.n_segments();
  }

  /// Home segment of master m: block distribution, so masters 0..k-1
  /// fill segment 0 first (the TuA's segment), then the next.
  [[nodiscard]] std::uint32_t home_segment(MasterId m) const noexcept {
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(m) * n_segments()) / n_masters);
  }

  /// Segment owning the address range of `addr`.
  [[nodiscard]] std::uint32_t route(Addr addr) const noexcept {
    return (addr >> stripe_log2) % n_segments();
  }

  /// Throws std::invalid_argument on inconsistent parameters.
  void validate() const;
};

/// Aggregate bridge-traffic accounting, global across all bridges.
struct BridgeStats {
  std::uint64_t hops = 0;            ///< store-and-forward traversals
  Cycle queue_cycles = 0;            ///< total enqueue-to-re-raise time
  std::uint64_t remote_transactions = 0;  ///< completions that crossed >=1 bridge
  std::uint64_t local_transactions = 0;   ///< completions served at home
};

class SegmentedInterconnect final : public Interconnect {
 public:
  /// Builds the arbiter instance of one segment (`n_local` local
  /// masters). Called once per segment, in segment order, so randomized
  /// policies draw deterministic per-segment seeds.
  using ArbiterFactory = std::function<std::unique_ptr<Arbiter>(
      std::uint32_t n_local, std::uint32_t segment)>;

  /// `slave` serves target-segment transactions (with the ORIGINAL
  /// global request, so per-master slave partitioning keeps working).
  SegmentedInterconnect(const SegmentedConfig& config, BusSlave& slave,
                        const ArbiterFactory& make_segment_arbiter);
  ~SegmentedInterconnect() override;

  // --- BusPort (the global, protocol-facing view) ------------------------
  void connect_master(MasterId master, BusMaster& callbacks) override;
  void request(const BusRequest& request, Cycle now) override;
  /// True while the master's request is raised at home and not granted.
  [[nodiscard]] bool has_pending(MasterId master) const override;
  /// True iff the master has no transaction anywhere in the interconnect.
  [[nodiscard]] bool can_request(MasterId master) const override;

  /// Delivers the ready bridge heads, then ticks the due segments in
  /// segment order (see the header comment).
  void tick(Cycle now) override;

  /// Quiet until a segment bus is due (its own horizon, filter and
  /// backpressure mask included) or a bridge head turns ready with its
  /// ingress port free. A head behind an occupied port waits for that
  /// port's completion, so a deadlocked ring has no horizon at all.
  /// O(segments) over the cached horizons.
  [[nodiscard]] Cycle next_activity(Cycle now) const override;

  /// O(1): only the interconnect's clock moves; the segments fold when
  /// next touched or settled.
  void skip(Cycle k) override;

  /// Make every segment due every cycle: each segment bus is ticked in
  /// every interconnect cycle, as a plain lockstep interconnect would.
  /// Results are identical, only slower -- the reference the per-segment
  /// clocks are tested against. Call before the first cycle.
  void hold_segments_current();

  /// Install a passive observer of GLOBAL-level activity (nullptr
  /// detaches): on_request at the global raise, on_transfer_start when
  /// the origin hop wins home-segment arbitration (hold = the home
  /// forward beat), on_transfer_complete when the target-segment hop
  /// retires -- the same request/grant/complete milestones NonSplitBus
  /// reports, so one BusObserver implementation covers both topologies.
  /// Transit hops are not observed as events; their effect shows up in
  /// the bridge queue depths below.
  void set_observer(BusObserver* observer) noexcept override {
    observer_ = observer;
  }

  /// Install segment `segment`'s eligibility filter (nullptr detaches).
  /// Local slot numbering (the filter's master ids): home cores in
  /// ascending global id, then one bridge-ingress port per incoming
  /// topology edge in ascending source-segment order (for the chain:
  /// from-left, then from-right, as always). Besides gating its own
  /// segment's arbitration, a filter receives
  /// on_remote_occupancy(local_core, cycles) whenever a home core's
  /// transaction finishes a hop on a FOREIGN segment, so per-segment
  /// credit accounting charges each core for its transaction's entire
  /// path. With a bounded `bridge_depth` the interconnect composes its
  /// own backpressure mask with the installed filter (filter first,
  /// then the blocked-next-hop mask).
  void set_filter(std::uint32_t segment, EligibilityFilter* filter) override;

  // --- topology introspection -------------------------------------------
  [[nodiscard]] std::uint32_t n_segments() const noexcept override {
    return config_.n_segments();
  }
  [[nodiscard]] std::uint32_t n_masters() const noexcept {
    return config_.n_masters;
  }
  [[nodiscard]] const Topology& topology() const noexcept {
    return config_.topology;
  }
  /// Local masters of a segment: home cores + bridge ingress ports.
  [[nodiscard]] std::uint32_t n_local_masters(
      std::uint32_t segment) const override;
  /// Home cores of a segment, ascending global id; a core's local slot is
  /// its index in this span.
  [[nodiscard]] std::span<const MasterId> segment_cores(
      std::uint32_t segment) const;
  [[nodiscard]] std::uint32_t home_segment(MasterId master) const override;
  /// Local slot of a core on its home segment.
  [[nodiscard]] std::uint32_t local_slot(MasterId master) const override;
  /// Bridges in delivery order = Topology::edges() order (for the chain:
  /// (s -> s+1), (s+1 -> s) per adjacency, the historical contract).
  [[nodiscard]] std::uint32_t n_bridges() const noexcept {
    return static_cast<std::uint32_t>(bridges_.size());
  }
  /// Requests currently buffered in bridge `b` (store-and-forward queue).
  [[nodiscard]] std::size_t bridge_queue_depth(std::uint32_t b) const;
  /// (from, to) segments of bridge `b`.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> bridge_route(
      std::uint32_t b) const;

  // --- statistics --------------------------------------------------------
  /// Global per-master view in BusStatistics shape: requests/grants/waits
  /// count home-segment arbitration, hold_cycles sums every segment-cycle
  /// occupied on the transaction's path, and busy/idle/total aggregate
  /// over all segments (total_cycles = n_segments x ticked cycles, so
  /// occupancy shares stay fractions of delivered interconnect capacity).
  /// The view is assembled by every call (a later call overwrites it).
  [[nodiscard]] const BusStatistics& statistics() const override;
  [[nodiscard]] const BusStatistics& segment_statistics(
      std::uint32_t segment) const;
  [[nodiscard]] const BridgeStats& bridge_stats() const noexcept {
    return bridge_stats_;
  }
  /// High-water mark of bridge `b`'s queue over the run.
  [[nodiscard]] std::size_t bridge_queue_depth_max(std::uint32_t b) const;
  /// Sum of bridge `b`'s end-of-cycle queue depths (mean = sum / ticks).
  [[nodiscard]] std::uint64_t bridge_queue_depth_sum(std::uint32_t b) const;
  /// Cycles this interconnect has ticked (denominator for depth means).
  [[nodiscard]] std::uint64_t ticked_cycles() const noexcept {
    return clock_;
  }
  /// Segment-bus cycles actually ticked (due segments only);
  /// n_segments() x ticked_cycles() is what ticking every segment every
  /// cycle would cost.
  [[nodiscard]] std::uint64_t segment_cycles_executed() const noexcept {
    return segment_ticks_;
  }
  /// Master-cycles segment `segment` withheld a pending request from
  /// arbitration because its routed next-hop bridge was full. Always 0
  /// when bridge_depth is unbounded.
  [[nodiscard]] std::uint64_t backpressure_stalls(std::uint32_t segment) const;
  /// Completed transactions by bridges crossed; index = hop count,
  /// size = topology diameter + 1.
  [[nodiscard]] std::span<const std::uint64_t> hop_histogram() const noexcept {
    return hop_histogram_;
  }
  [[nodiscard]] const SegmentedConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const Arbiter& segment_arbiter(std::uint32_t segment) const;

 private:
  // Per-(segment, local-slot) relay: routes NonSplitBus master callbacks
  // back into the interconnect with the port identity attached.
  struct PortRelay final : BusMaster {
    SegmentedInterconnect* owner = nullptr;
    std::uint32_t segment = 0;
    MasterId local = 0;
    void on_latch(const BusRequest& /*request*/, Cycle now) override {
      owner->hop_latched(segment, local, now);
    }
    void on_grant(const BusRequest& request, Cycle now, Cycle hold) override {
      owner->hop_granted(segment, local, request, now, hold);
    }
    void on_complete(const BusRequest& request, Cycle now) override {
      owner->hop_completed(segment, local, request, now);
    }
  };

  // Per-segment slave adapter: target-segment transactions go to the real
  // slave (translated back to the original request), transit hops cost
  // the bridge forward beat.
  struct SegmentSlave final : BusSlave {
    SegmentedInterconnect* owner = nullptr;
    std::uint32_t segment = 0;
    Cycle begin_transaction(const BusRequest& request, Cycle now) override {
      return owner->hop_begin(segment, request, now);
    }
    void complete_transaction(const BusRequest& request, Cycle now) override {
      owner->hop_slave_complete(segment, request, now);
    }
  };

  // Per-segment eligibility adapter: applies the installed (credit)
  // filter first, then masks out requests whose routed next-hop bridge
  // is full -- the backpressure half of the grant-eligibility contract.
  // With bridge_depth unbounded the blocked mask is always 0, so the
  // composition is a byte-exact pass-through of the legacy behavior.
  struct SegmentGate final : EligibilityFilter {
    SegmentedInterconnect* owner = nullptr;
    std::uint32_t segment = 0;
    EligibilityFilter* user = nullptr;  ///< from set_filter (may be null)
    std::uint32_t eligible(std::uint32_t pending, Cycle now) override {
      const std::uint32_t mask =
          user != nullptr ? user->eligible(pending, now) : pending;
      return mask & ~owner->blocked_mask(segment, mask);
    }
    void on_cycle(MasterId holder, Cycle now) override {
      if (user != nullptr) user->on_cycle(holder, now);
    }
    void on_grant(MasterId master, Cycle now) override {
      if (user != nullptr) user->on_grant(master, now);
    }
    void on_remote_occupancy(MasterId master, Cycle occupancy) override {
      if (user != nullptr) user->on_remote_occupancy(master, occupancy);
    }
    // The backpressure mask only changes at events, so a blocked request
    // cannot become eligible in a quiet window.
    Cycle next_activity(std::uint32_t pending, MasterId holder,
                        Cycle now) const override {
      const std::uint32_t open =
          pending & ~owner->blocked_mask(segment, pending);
      if (user != nullptr) return user->next_activity(open, holder, now);
      return open != 0 ? now + 1 : sim::kNever;
    }
    void skip(MasterId holder, Cycle k) override {
      if (user != nullptr) user->skip(holder, k);
    }
    void reset() override {
      if (user != nullptr) user->reset();
    }
  };

  /// A per-cycle level summed lazily: `level` holds from interconnect
  /// cycle `since` on, `closed` sums the cycles before it.
  struct LevelSum {
    std::uint64_t closed = 0;
    std::uint64_t level = 0;
    std::uint64_t since = 0;
    /// The level changes during cycle `tick` (an interconnect tick
    /// index); the last change in a cycle is its end-of-cycle level.
    void set(std::uint64_t value, std::uint64_t tick) {
      closed += level * (tick - since);
      since = tick;
      level = value;
    }
    /// The sum over cycles [0, end).
    [[nodiscard]] std::uint64_t sum(std::uint64_t end) const {
      return closed + level * (end - since);
    }
  };

  struct Segment {
    std::vector<MasterId> cores;  ///< ascending global ids; slot = index
    /// Source segment feeding each bridge-ingress port, ascending; port
    /// i lives at local slot cores.size() + i.
    std::vector<std::uint32_t> ingress_from;
    std::unique_ptr<Arbiter> arbiter;
    std::unique_ptr<SegmentSlave> slave;
    std::unique_ptr<SegmentGate> gate;
    std::unique_ptr<NonSplitBus> bus;
    std::vector<std::unique_ptr<PortRelay>> relays;  ///< one per local slot
    /// Global master whose hop occupies each local slot (kNoMaster: free).
    std::vector<MasterId> port_owner;
    /// Every cycle before `synced` is folded into the bus. Mutable: a
    /// fold changes nothing a later cycle sees (see settle()).
    mutable Cycle synced = 0;
    /// The bus's horizon, next_activity(synced - 1): the first cycle it
    /// must be ticked in. Cycles before it are pure countdowns.
    Cycle due = 0;
    /// Pending requests withheld by a full next-hop bridge.
    LevelSum stalls;
  };

  struct BridgeEntry {
    MasterId master = kNoMaster;
    Cycle ready = 0;     ///< earliest re-raise cycle (store-and-forward)
    Cycle enqueued = 0;  ///< for queue-time accounting
  };

  struct Bridge {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::uint32_t dest_port = 0;  ///< local slot of the ingress port on `to`
    /// FIFO ring of n_masters entries: a master has at most one
    /// transaction in flight, so the queue never holds more.
    std::vector<BridgeEntry> ring;
    std::uint32_t head = 0;   ///< ring index of the queue front
    std::uint32_t depth = 0;  ///< entries queued
    /// Grant-time admissions not yet enqueued (bounded depth only):
    /// depth + reserved <= bridge_depth is the hard invariant.
    std::uint32_t reserved = 0;
    LevelSum depth_sum;           ///< end-of-cycle depths
    std::uint32_t depth_max = 0;  ///< high-water mark (taken at push)
  };

  /// One outstanding transaction per global master.
  struct InFlight {
    bool active = false;
    BusRequest original;        ///< issued_at stamped at the global raise
    std::uint32_t target = 0;   ///< segment owning the address range
    std::uint32_t hops = 0;     ///< bridges crossed so far
    Cycle hop_hold = 0;         ///< hold of the hop currently in transfer
    /// Routed next bridge of the hop currently raised (kNoBridge on the
    /// target segment), fixed in raise_hop.
    std::uint32_t next_bridge = 0;
  };

  /// BusPort::settle(): fold every segment up to the interconnect's
  /// clock, so its bus, statistics and credit filter read as if ticked
  /// every cycle. The folds change nothing a later cycle sees, so readers
  /// of the segment filters (virtual contenders, the tracer, run harvest)
  /// settle through const references; O(1) when nothing moved since the
  /// last call.
  void settle_parts() const override;

  /// Raise master `master`'s hop on `segment` at local slot `local`.
  void raise_hop(std::uint32_t segment, std::uint32_t local, MasterId master,
                 Cycle forced_hold, Cycle now);
  /// Deliver ready bridge entries whose ingress port is free.
  void deliver_bridges(Cycle now);
  /// Fold segment `s` up to cycle `now` ahead of a write from outside
  /// its own tick -- through `now` when it has had its turn already.
  void fold_for_write(std::uint32_t s, Cycle now);
  /// After a change to segment `s`: its horizon and stall level.
  void refresh(std::uint32_t s);
  /// The local slots among `candidates` whose occupant's routed next-hop
  /// bridge is full (0 when bridge_depth is unbounded). Consulted by the
  /// SegmentGate at arbitration time and by the stall accounting.
  [[nodiscard]] std::uint32_t blocked_mask(std::uint32_t segment,
                                           std::uint32_t candidates) const;
  /// Fold `seg` so every cycle before `target` is in its bus.
  static void fold(const Segment& seg, Cycle target);
  /// Bridge index of directed edge (from -> to); asserts adjacency.
  [[nodiscard]] std::uint32_t bridge_index(std::uint32_t from,
                                           std::uint32_t to) const;

  // NonSplitBus callback targets (see PortRelay / SegmentSlave).
  Cycle hop_begin(std::uint32_t segment, const BusRequest& local_request,
                  Cycle now);
  void hop_slave_complete(std::uint32_t segment,
                          const BusRequest& local_request, Cycle now);
  void hop_latched(std::uint32_t segment, MasterId local, Cycle now) const;
  void hop_granted(std::uint32_t segment, MasterId local,
                   const BusRequest& local_request, Cycle now, Cycle hold);
  void hop_completed(std::uint32_t segment, MasterId local,
                     const BusRequest& local_request, Cycle now);

  [[nodiscard]] MasterId owner_of(std::uint32_t segment,
                                  MasterId local) const;

  SegmentedConfig config_;
  BusSlave& slave_;

  std::vector<Segment> segments_;
  std::vector<Bridge> bridges_;  ///< Topology::edges() order
  /// Directed-edge lookup: edge_index_[from * n + to] = bridge index.
  std::vector<std::uint32_t> edge_index_;
  /// Per-segment filters, mirrored from set_filter: foreign-hop
  /// occupancy is charged back to the origin's HOME filter
  /// (EligibilityFilter::on_remote_occupancy), so a credit budget pays
  /// for its transaction's whole path, not just the home forward beat.
  std::vector<EligibilityFilter*> filters_;

  std::vector<std::uint32_t> home_;  ///< per master
  std::vector<std::uint32_t> slot_;  ///< per master: home-segment slot
  BusObserver* observer_ = nullptr;  ///< global-level milestones (may be null)
  std::vector<MasterLink> callbacks_;
  std::vector<InFlight> flight_;

  /// Live global per-master counters; busy/idle/total assembled on demand.
  BusStatistics global_;
  mutable BusStatistics view_;  ///< what statistics() assembled last
  BridgeStats bridge_stats_;
  std::vector<std::uint64_t> hop_histogram_;  ///< per completed hop count
  /// The interconnect's clock: the next cycle to tick. Kernels start at
  /// cycle 0, so it also counts the cycles ticked or skipped.
  Cycle clock_ = 0;
  /// Inside tick(clock_): segments [0, turn_) have had their turn.
  std::uint32_t turn_ = 0;
  std::uint64_t segment_ticks_ = 0;  ///< segment-bus cycles ticked
  std::size_t queued_ = 0;           ///< entries over every bridge
  mutable Cycle settled_ = 0;        ///< clock_ at the last settle()
  bool hold_current_ = false;
};

}  // namespace cbus::bus
