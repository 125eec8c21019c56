#include "sim/batch_kernel.hpp"

#include "common/contracts.hpp"

namespace cbus::sim {

BatchKernel::BatchKernel(std::size_t lanes, Cycle stripe)
    : lane_components_(lanes), post_components_(lanes), stripe_(stripe) {
  CBUS_EXPECTS(lanes >= 1);
  CBUS_EXPECTS(stripe >= 1);
}

void BatchKernel::add(std::size_t lane, Component& component) {
  CBUS_EXPECTS(lane < lane_components_.size());
  lane_components_[lane].push_back(&component);
}

void BatchKernel::add_post(std::size_t lane, Component& component) {
  CBUS_EXPECTS(lane < post_components_.size());
  post_components_[lane].push_back(&component);
}

std::size_t BatchKernel::lane_component_count(std::size_t lane) const {
  CBUS_EXPECTS(lane < lane_components_.size());
  return lane_components_[lane].size();
}

void BatchKernel::expect_replicas() const {
  const std::size_t pre_slots = lane_components_.front().size();
  const std::size_t post_slots = post_components_.front().size();
  for (std::size_t l = 0; l < lanes(); ++l) {
    CBUS_EXPECTS_MSG(lane_components_[l].size() == pre_slots &&
                         post_components_[l].size() == post_slots,
                     "lanes are replicas: equal component counts required");
  }
}

std::vector<std::size_t> BatchKernel::all_lanes() const {
  std::vector<std::size_t> live(lanes());
  for (std::size_t l = 0; l < lanes(); ++l) live[l] = l;
  return live;
}

}  // namespace cbus::sim
