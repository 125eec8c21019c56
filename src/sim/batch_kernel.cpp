#include "sim/batch_kernel.hpp"

#include "common/contracts.hpp"

namespace cbus::sim {

BatchKernel::BatchKernel(std::size_t lanes, Cycle stripe)
    : lanes_(lanes), post_lanes_(lanes), stripe_(stripe) {
  CBUS_EXPECTS(lanes >= 1);
  CBUS_EXPECTS(stripe >= 1);
}

void BatchKernel::add(std::size_t lane, Component& component) {
  CBUS_EXPECTS(lane < lanes_.size());
  lanes_[lane].add(component);
}

void BatchKernel::add_post(std::size_t lane, Component& component) {
  CBUS_EXPECTS(lane < post_lanes_.size());
  post_lanes_[lane].add(component);
}

std::size_t BatchKernel::lane_component_count(std::size_t lane) const {
  CBUS_EXPECTS(lane < lanes_.size());
  return lanes_[lane].components().size();
}

void BatchKernel::hold_components_current() {
  for (Lane& lane : lanes_) lane.hold_current();
}

std::uint64_t BatchKernel::component_ticks() const noexcept {
  std::uint64_t ticks = 0;
  for (std::size_t l = 0; l < lanes(); ++l) {
    ticks += lanes_[l].ticks() + post_lanes_[l].ticks();
  }
  return ticks;
}

void BatchKernel::expect_replicas() const {
  const std::size_t pre_slots = lanes_.front().components().size();
  const std::size_t post_slots = post_lanes_.front().components().size();
  for (std::size_t l = 0; l < lanes(); ++l) {
    CBUS_EXPECTS_MSG(lanes_[l].components().size() == pre_slots &&
                         post_lanes_[l].components().size() == post_slots,
                     "lanes are replicas: equal component counts required");
  }
}

std::vector<std::size_t> BatchKernel::all_lanes() const {
  std::vector<std::size_t> live(lanes());
  for (std::size_t l = 0; l < lanes(); ++l) live[l] = l;
  return live;
}

}  // namespace cbus::sim
