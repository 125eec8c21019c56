#include "cache/set_assoc_cache.hpp"

#include <string>

#include "common/contracts.hpp"

namespace cbus::cache {

SetAssocCache::SetAssocCache(const CacheConfig& config, rng::RandBank& bank,
                             std::string_view name)
    : config_(config), placement_seed_(bank.derive_seed()) {
  config_.validate();
  ways_.resize(static_cast<std::size_t>(config_.n_sets()) * config_.ways);
  victim_metas_.resize(config_.ways);
  switch (config_.replacement) {
    case ReplacementKind::kLru:
      replacement_ = std::make_unique<LruReplacement>();
      break;
    case ReplacementKind::kRandom:
      replacement_ = std::make_unique<RandomReplacement>(
          bank.open(std::string(name) + ".repl"));
      break;
  }
}

std::uint32_t SetAssocCache::index_of(Addr line_addr) const noexcept {
  return config_.placement == PlacementKind::kModulo
             ? modulo_index(line_addr, config_.n_sets())
             : random_hash_index(line_addr, placement_seed_,
                                 config_.n_sets());
}

SetAssocCache::Way* SetAssocCache::find(std::uint32_t set, Addr line_addr) {
  Way* base = &ways_[static_cast<std::size_t>(set) * config_.ways];
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].line == line_addr) return &base[w];
  }
  return nullptr;
}

const SetAssocCache::Way* SetAssocCache::find(std::uint32_t set,
                                              Addr line_addr) const {
  const Way* base = &ways_[static_cast<std::size_t>(set) * config_.ways];
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].line == line_addr) return &base[w];
  }
  return nullptr;
}

AccessResult SetAssocCache::access(Addr addr, bool allocate_on_miss,
                                   bool mark_dirty) {
  const Addr line = line_of(addr);
  const std::uint32_t set = index_of(line);
  ++stats_.accesses;

  AccessResult result;
  if (Way* way = find(set, line); way != nullptr) {
    ++stats_.hits;
    way->meta.last_use = ++use_stamp_;
    if (mark_dirty) way->dirty = true;
    result.hit = true;
    return result;
  }

  ++stats_.misses;
  if (!allocate_on_miss) return result;

  Way* base = &ways_[static_cast<std::size_t>(set) * config_.ways];
  Way* slot = nullptr;
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (!base[w].valid) {
      slot = &base[w];
      break;
    }
  }
  if (slot == nullptr) {
    // All ways valid: consult the replacement policy.
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      victim_metas_[w] = base[w].meta;
    }
    const std::uint32_t victim = replacement_->victim(victim_metas_);
    CBUS_ASSERT(victim < config_.ways);
    slot = &base[victim];
    result.victim_valid = true;
    result.victim_dirty = slot->dirty;
    result.victim_line = slot->line;
    ++stats_.evictions;
    if (slot->dirty) ++stats_.dirty_evictions;
  }

  slot->line = line;
  slot->valid = true;
  slot->dirty = mark_dirty;
  slot->meta.valid = true;
  slot->meta.last_use = ++use_stamp_;
  result.filled = true;
  return result;
}

bool SetAssocCache::probe(Addr addr) const {
  const Addr line = line_of(addr);
  return find(index_of(line), line) != nullptr;
}

bool SetAssocCache::invalidate(Addr addr) {
  const Addr line = line_of(addr);
  if (Way* way = find(index_of(line), line); way != nullptr) {
    way->valid = false;
    way->dirty = false;
    way->meta = WayMeta{};
    return true;
  }
  return false;
}

void SetAssocCache::reset(std::uint64_t placement_seed) {
  for (auto& way : ways_) way = Way{};
  placement_seed_ = placement_seed;
  use_stamp_ = 0;
}

}  // namespace cbus::cache
