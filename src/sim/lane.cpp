#include "sim/lane.hpp"

namespace cbus::sim {

Component::~Component() {
  if (lane_ != nullptr) lane_->unlink(slot_);
}

Lane::~Lane() {
  for (Component* component : components_) {
    if (component != nullptr) component->lane_ = nullptr;
  }
}

void Lane::unlink(std::uint32_t slot) {
  components_[slot] = nullptr;
  due_[slot] = kNever;
}

}  // namespace cbus::sim
