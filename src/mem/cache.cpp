#include "mem/cache.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace teco::mem {

CacheConfig l1_config() { return CacheConfig{8 * 1024, 8, kLineBytes}; }
CacheConfig l2_config() { return CacheConfig{64 * 1024, 16, kLineBytes}; }
CacheConfig llc_config() {
  return CacheConfig{16 * 1024 * 1024, 64, kLineBytes};
}

Cache::Cache(CacheConfig cfg) : cfg_(cfg) {
  shard_.assert_held();
  if (cfg_.size_bytes == 0 || cfg_.ways == 0 || cfg_.line_bytes == 0) {
    throw std::invalid_argument("cache config fields must be nonzero");
  }
  if (cfg_.size_bytes % (cfg_.line_bytes * cfg_.ways) != 0) {
    throw std::invalid_argument("cache size must be a multiple of way size");
  }
  sets_.resize(cfg_.sets());
  for (auto& s : sets_) s.reserve(cfg_.ways);
  valid_.assign(sets_.size(), 0);
  occupied_.assign((sets_.size() + 63) / 64, 0);
}

void Cache::note_valid(std::size_t i, int delta) {
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if (delta > 0) {
    if (valid_[i]++ == 0) occupied_[i / 64] |= bit;
    ++resident_;
  } else {
    if (--valid_[i] == 0) occupied_[i / 64] &= ~bit;
    --resident_;
  }
}

std::size_t Cache::next_occupied(std::size_t i) const {
  for (std::size_t w = i / 64; w < occupied_.size(); ++w) {
    std::uint64_t bits = occupied_[w];
    if (w == i / 64) bits &= ~std::uint64_t{0} << (i % 64);
    if (bits != 0) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    }
  }
  return sets_.size();
}

CacheLineMeta* Cache::lookup(Addr addr) {
  shard_.assert_held();
  const Addr base = line_base(addr);
  for (auto& line : sets_[set_index(addr)]) {
    if (line.valid && line.base == base) {
      line.last_use = ++tick_;
      ++stats_.hits;
      return &line;
    }
  }
  ++stats_.misses;
  return nullptr;
}

const CacheLineMeta* Cache::peek(Addr addr) const {
  shard_.assert_held();
  const Addr base = line_base(addr);
  for (const auto& line : sets_[set_index(addr)]) {
    if (line.valid && line.base == base) return &line;
  }
  return nullptr;
}

CacheLineMeta& Cache::insert(Addr addr, std::uint8_t state, bool dirty) {
  shard_.assert_held();
  const Addr base = line_base(addr);
  const std::size_t si = set_index(addr);
  auto& set = sets_[si];
  CacheLineMeta* husk = nullptr;
  for (auto& line : set) {
    if (line.valid && line.base == base) {
      line.state = state;
      line.dirty = line.dirty || dirty;
      line.last_use = ++tick_;
      return line;
    }
    if (!line.valid && husk == nullptr) husk = &line;
  }
  // Reuse an invalidated slot before growing the set or evicting anything:
  // a husk left by invalidate() is free capacity, and "evicting" one would
  // report a drop (with its stale state byte) for a line that is not
  // resident at all. Reusing it first keeps a set at its real occupancy
  // instead of collecting one husk per invalidate/insert cycle.
  if (husk != nullptr) {
    note_valid(si, +1);
    *husk = CacheLineMeta{base, true, dirty, state, ++tick_};
    return *husk;
  }
  if (set.size() < cfg_.ways) {
    note_valid(si, +1);
    set.push_back(CacheLineMeta{base, true, dirty, state, ++tick_});
    return set.back();
  }
  // Evict the LRU victim (every slot is valid here).
  CacheLineMeta* victim = &set.front();
  for (auto& line : set) {
    if (line.last_use < victim->last_use) victim = &line;
  }
  ++stats_.evictions;
  if (victim->dirty) {
    ++stats_.writebacks;
    if (writeback_) writeback_(victim->base, victim->state);
  }
  if (observer_ != nullptr) {
    observer_->on_cache_drop(victim->base, victim->state, victim->dirty);
  }
  *victim = CacheLineMeta{base, true, dirty, state, ++tick_};
  return *victim;
}

bool Cache::invalidate(Addr addr, bool writeback_on_invalidate) {
  shard_.assert_held();
  const Addr base = line_base(addr);
  const std::size_t si = set_index(addr);
  for (auto& line : sets_[si]) {
    if (line.valid && line.base == base) {
      if (line.dirty && writeback_on_invalidate) {
        ++stats_.writebacks;
        if (writeback_) writeback_(line.base, line.state);
      }
      if (observer_ != nullptr) {
        observer_->on_cache_drop(line.base, line.state, line.dirty);
      }
      line.valid = false;
      line.dirty = false;
      note_valid(si, -1);
      return true;
    }
  }
  return false;
}

std::uint64_t Cache::flush_dirty() {
  shard_.assert_held();
  std::uint64_t n = 0;
  // The bitmap is read afresh for each step, so a writeback callback that
  // fills or empties a later set of this cache sees a full scan's walk.
  for (std::size_t i = next_occupied(0); i < sets_.size();
       i = next_occupied(i + 1)) {
    for (auto& line : sets_[i]) {
      if (line.valid && line.dirty) {
        ++stats_.writebacks;
        if (writeback_) writeback_(line.base, line.state);
        line.dirty = false;
        ++n;
      }
    }
  }
  return n;
}

void Cache::reset() {
  shard_.assert_held();
  for (auto& set : sets_) set.clear();
  valid_.assign(valid_.size(), 0);
  occupied_.assign(occupied_.size(), 0);
  resident_ = 0;
  stats_ = CacheStats{};
  tick_ = 0;
}

void Cache::for_each(
    const std::function<void(const CacheLineMeta&)>& fn) const {
  shard_.assert_held();
  for (std::size_t i = next_occupied(0); i < sets_.size();
       i = next_occupied(i + 1)) {
    for (const auto& line : sets_[i]) {
      if (line.valid) fn(line);
    }
  }
}

}  // namespace teco::mem
