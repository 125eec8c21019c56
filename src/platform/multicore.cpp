#include "platform/multicore.hpp"

#include "common/contracts.hpp"
#include "metrics/probes.hpp"

namespace cbus::platform {

namespace {

/// Segment `cores`' credit config carved from the global one: core slots
/// keep their GLOBAL Table-I parameters (rates, caps, thresholds), so the
/// paper's per-core budget shapes each core on its home segment
/// unchanged. Bridge ingress slots are credit-exempt (full recovery,
/// zero threshold) because the traffic they carry is charged at the
/// SOURCE: the interconnect debits every foreign-hop occupancy against
/// the origin core's home budget (EligibilityFilter::on_remote_occupancy
/// -> CreditState::charge), so a budget bounds its core's occupancy of
/// the whole interconnect and gating the bridge slot too would charge
/// the same cycles twice and starve cross-segment flows.
[[nodiscard]] core::CbaConfig segment_cba(const core::CbaConfig& global,
                                          std::span<const MasterId> cores,
                                          std::uint32_t n_local) {
  core::CbaConfig cfg;
  cfg.n_masters = n_local;
  cfg.max_latency = global.max_latency;
  cfg.scale = global.scale;
  const std::uint64_t bridge_cap = global.scale * global.max_latency;
  cfg.increment.assign(n_local, global.scale);
  cfg.saturation.assign(n_local, bridge_cap);
  cfg.threshold.assign(n_local, 0);
  cfg.initial.assign(n_local, bridge_cap);
  for (std::size_t slot = 0; slot < cores.size(); ++slot) {
    const MasterId m = cores[slot];
    cfg.increment[slot] = global.increment[m];
    cfg.saturation[slot] = global.saturation[m];
    cfg.threshold[slot] = global.threshold[m];
    cfg.initial[slot] = global.initial[m];
  }
  cfg.validate();
  return cfg;
}

}  // namespace

Multicore::Multicore(const PlatformConfig& config, std::uint64_t seed,
                     cpu::OpStream& tua,
                     const std::vector<cpu::OpStream*>& contenders,
                     core::CreditLaneView credit_lane,
                     core::BatchCreditEngine* engine, std::size_t engine_lane)
    : config_(config), bank_(seed), engine_(engine) {
  config_.validate();
  CBUS_EXPECTS_MSG(contenders.size() + 1 <= config_.n_cores,
                   "more workloads than cores");
  CBUS_EXPECTS_MSG(engine == nullptr ||
                       (!credit_lane.empty() && config_.cba.has_value() &&
                        !config_.topology.segmented() &&
                        config_.bus_protocol == BusProtocol::kNonSplit),
                   "the batch credit engine serves CBA machines on the "
                   "single non-split bus, over a CreditSoA lane");

  // Bank-draw order is part of the reproducibility contract: the
  // single-bus arbiter draws its channel seeds BEFORE the L2 placement
  // seeds, exactly as it always has. The segmented path is new, so its
  // per-segment arbiters draw after the L2 (the interconnect needs the
  // slave reference at construction), in segment order.
  if (!config_.topology.segmented()) {
    arbiter_ = bus::make_arbiter(config_.arbiter, config_.n_cores, bank_,
                                 config_.tdma_slot);
  }
  l2_ = std::make_unique<mem::PartitionedL2>(
      config_.n_cores, config_.l2_partition, config_.timings, bank_,
      config_.dram);

  const bus::BusConfig bus_cfg{config_.n_cores,
                               config_.overlapped_arbitration};
  if (config_.topology.segmented()) {
    seg_bus_ = std::make_unique<bus::SegmentedInterconnect>(
        config_.segmented_config(), *l2_,
        [this](std::uint32_t n_local, std::uint32_t /*segment*/) {
          return bus::make_arbiter(config_.arbiter, n_local, bank_,
                                   config_.tdma_slot);
        });
  } else if (config_.bus_protocol == BusProtocol::kSplit) {
    split_bus_ = std::make_unique<bus::SplitBus>(bus_cfg, *arbiter_, *l2_);
  } else {
    bus_ = std::make_unique<bus::NonSplitBus>(bus_cfg, *arbiter_, *l2_);
  }

  if (config_.cba.has_value() && seg_bus_) {
    // Per-segment credit accounting: one CreditFilter per segment over
    // that segment's local slots, carved out of the (optional) external
    // SoA lane in segment order.
    CBUS_EXPECTS_MSG(credit_lane.empty() ||
                         credit_lane.slots >= config_.credit_slots(),
                     "credit lane smaller than the segmented slot count");
    std::size_t offset = 0;
    for (std::uint32_t s = 0; s < seg_bus_->n_segments(); ++s) {
      const std::uint32_t n_local = seg_bus_->n_local_masters(s);
      core::CbaConfig seg_cfg =
          segment_cba(*config_.cba, seg_bus_->segment_cores(s), n_local);
      auto filter =
          credit_lane.empty()
              ? std::make_unique<core::CreditFilter>(std::move(seg_cfg))
              : std::make_unique<core::CreditFilter>(
                    std::move(seg_cfg),
                    credit_lane.subview(offset, n_local));
      offset += n_local;
      seg_bus_->set_filter(s, filter.get());
      seg_filters_.push_back(std::move(filter));
    }
    if (config_.mode == PlatformMode::kWcetEstimation &&
        config_.tua_zero_initial_budget) {
      seg_filters_[seg_bus_->home_segment(0)]->state().set_budget(
          seg_bus_->local_slot(0), 0);
    }
  } else if (config_.cba.has_value()) {
    filter_ = credit_lane.empty()
                  ? std::make_unique<core::CreditFilter>(*config_.cba)
                  : std::make_unique<core::CreditFilter>(*config_.cba,
                                                         credit_lane);
    if (bus_) bus_->set_filter(filter_.get());
    if (split_bus_) split_bus_->set_filter(filter_.get());
    if (config_.mode == PlatformMode::kWcetEstimation &&
        config_.tua_zero_initial_budget) {
      // Measurements for the TuA are collected under worst conditions,
      // "setting its initial budget to zero" (paper §III-B).
      filter_->state().set_budget(0, 0);
    }
  }

  bus::BusPort& port = bus_port();
  // Master 0: the task under analysis.
  cores_.push_back(std::make_unique<cpu::InOrderCore>(0, config_.core, tua,
                                                      port, bank_));
  // Real contender cores.
  for (std::size_t i = 0; i < contenders.size(); ++i) {
    CBUS_EXPECTS(contenders[i] != nullptr);
    cores_.push_back(std::make_unique<cpu::InOrderCore>(
        static_cast<MasterId>(i + 1), config_.core, *contenders[i], port,
        bank_));
  }

  // WCET-estimation mode: the remaining masters become Table-I contenders.
  if (config_.mode == PlatformMode::kWcetEstimation) {
    for (MasterId m = static_cast<MasterId>(cores_.size());
         m < config_.n_cores; ++m) {
      core::VirtualContenderConfig vc;
      vc.self = m;
      vc.tua = 0;
      vc.hold = config_.contender_hold;
      vc.policy = config_.contender_policy;
      if (engine_ != nullptr) {
        // Batched fast path: the engine's contender bank drives this
        // slot's COMP latch vertically across lanes -- no component.
        engine_->add_contender(engine_lane, vc, *bus_);
        continue;
      }
      const core::CreditState* credits = nullptr;
      if (seg_bus_ && !seg_filters_.empty()) {
        // Segmented: the contender's BUDGi lives in its home segment's
        // credit state, at its local slot.
        vc.credit_slot = seg_bus_->local_slot(m);
        credits = &seg_filters_[seg_bus_->home_segment(m)]->state();
      } else if (filter_) {
        credits = &filter_->state();
      }
      virtual_contenders_.push_back(
          std::make_unique<core::VirtualContender>(vc, port, credits));
    }
  }

  // Credit controller over the single-bus credit state. The STATIC
  // controller exists for introspection but is never registered with the
  // kernel: `controller = static` machines tick the exact component list
  // they always have, keeping pre-controller campaigns byte-identical.
  if (filter_ != nullptr) {
    controller_ = ctrl::make_controller(
        config_.controller, filter_->state(),
        bus_ ? bus_->statistics() : split_bus_->statistics());
  }

  // Tick order: cores, then contenders, then the bus (see header), then
  // the adaptive controller (it reads the bus statistics the cycle just
  // produced and retunes increments for the next one).
  //
  // Engine mode keeps only the cores in the kernel: the engine stage
  // runs the contender bank, the phased bus tick and the vertical credit
  // update in that same order, and attach() registers the adaptive
  // controller as a post-stage component.
  for (auto& core_ptr : cores_) kernel_.add(*core_ptr);
  if (engine_ != nullptr) {
    engine_->set_lane(engine_lane, *bus_, filter_->state());
    return;
  }
  for (auto& vc : virtual_contenders_) kernel_.add(*vc);
  if (bus_) kernel_.add(*bus_);
  if (split_bus_) kernel_.add(*split_bus_);
  if (seg_bus_) kernel_.add(*seg_bus_);
  if (controller_ && config_.controller.adaptive()) {
    kernel_.add(*controller_);
  }
}

RunResult Multicore::run(Cycle max_cycles) {
  CBUS_EXPECTS_MSG(engine_ == nullptr,
                   "engine-mode machines run via attach() on a staged batch");
  const bool finished =
      kernel_.run_until([this]() { return tua_done(); }, max_cycles);
  return collect(finished, kernel_.now());
}

RunResult Multicore::run_all(Cycle max_cycles) {
  CBUS_EXPECTS_MSG(engine_ == nullptr,
                   "engine-mode machines run via attach() on a staged batch");
  const bool finished = kernel_.run_until(
      [this]() {
        for (const auto& c : cores_) {
          if (!c->done()) return false;
        }
        return true;
      },
      max_cycles);
  return collect(finished, kernel_.now());
}

void Multicore::attach(sim::BatchKernel& batch, std::size_t lane) {
  for (sim::Component* component : kernel_.components()) {
    batch.add(lane, *component);
  }
  if (engine_ != nullptr && controller_ != nullptr &&
      config_.controller.adaptive()) {
    batch.add_post(lane, *controller_);
  }
}

RunResult Multicore::collect(bool finished, Cycle executed) const {
  RunResult result;
  result.tua_finished = finished && cores_.front()->done();
  result.tua_cycles = cores_.front()->done() ? cores_.front()->finish_cycle()
                                             : executed;
  result.tua_stats = cores_.front()->stats();
  if (bus_) {
    result.bus_stats = bus_->statistics();
  } else if (seg_bus_) {
    result.bus_stats = seg_bus_->statistics();
  } else {
    result.bus_stats = split_bus_->statistics();
  }
  result.core_finish.reserve(cores_.size());
  for (const auto& c : cores_) {
    result.core_finish.push_back(c->done() ? c->finish_cycle() : 0);
  }
  metrics::probe_tua(result.tua_cycles, result.tua_stats, result.record);
  metrics::probe_bus(result.bus_stats, result.record);
  metrics::probe_fairness(result.bus_stats, result.record);
  if (seg_bus_) {
    // The segment filters are read directly: settle the segments' clocks.
    seg_bus_->settle();
    std::uint64_t underflows = 0;
    std::vector<double> budgets;
    if (!seg_filters_.empty()) {
      for (const auto& f : seg_filters_) {
        underflows += f->state().underflow_clamps();
      }
      budgets.resize(config_.n_cores);
      for (MasterId m = 0; m < config_.n_cores; ++m) {
        budgets[m] = seg_filters_[seg_bus_->home_segment(m)]
                         ->state()
                         .budget_cycles(seg_bus_->local_slot(m));
      }
    }
    result.credit_underflows = underflows;
    metrics::probe_credit(underflows, budgets, result.record);
    metrics::probe_segments(seg_bus_.get(), result.bus_stats,
                            result.record);
  } else {
    result.credit_underflows =
        filter_ ? filter_->state().underflow_clamps() : 0;
    metrics::probe_credit(filter_.get(), result.record);
    metrics::probe_segments(nullptr, result.bus_stats, result.record);
  }
  // ctrl.* keys appear only for adaptive machines (probe_ctrl skips the
  // static controller), so static records keep the pre-controller shape.
  metrics::probe_ctrl(controller_.get(), result.record);
  return result;
}

}  // namespace cbus::platform
