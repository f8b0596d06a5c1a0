// Set-associative cache model (tags + per-line metadata, no data payload).
//
// Models the CPU cache hierarchy of Table II and the accelerator-side giant
// cache directory. Lines carry an opaque 8-bit state (the coherence layer
// stores MESI states there) and a dirty bit; evictions surface through a
// writeback callback, which is exactly the stream the CXL update protocol
// taps (Section IV-B: "a cache line is transferred when ... written back").
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "check/observer.hpp"
#include "core/annotations.hpp"
#include "mem/address.hpp"

namespace teco::mem {

struct CacheConfig {
  std::uint64_t size_bytes = 16 * 1024 * 1024;
  std::uint32_t ways = 16;
  std::uint64_t line_bytes = kLineBytes;

  std::uint64_t sets() const { return size_bytes / (line_bytes * ways); }
};

/// Table II CPU hierarchy presets.
CacheConfig l1_config();   // 8 KB / 64 B / 8-way
CacheConfig l2_config();   // 64 KB / 64 B / 16-way
CacheConfig llc_config();  // shared 16 MB / 64 B / 64-way

struct CacheLineMeta {
  Addr base = 0;
  bool valid = false;
  bool dirty = false;
  std::uint8_t state = 0;      ///< Opaque to the cache; MESI lives here.
  std::uint64_t last_use = 0;  ///< LRU timestamp.
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;  ///< Dirty evictions + explicit flushes.
};

class Cache {
 public:
  /// Called with (line_base, state) whenever a dirty line leaves the cache.
  using WritebackFn = std::function<void(Addr, std::uint8_t)>;

  explicit Cache(CacheConfig cfg);

  /// Look up the line containing `addr`. Touches LRU on hit.
  /// Returns nullptr on miss.
  CacheLineMeta* lookup(Addr addr);
  const CacheLineMeta* peek(Addr addr) const;  ///< No LRU side effects.

  /// Insert (allocating) the line containing `addr` with the given state.
  /// A slot freed by invalidate() is reused before the set grows, so a set
  /// never holds more slots than its peak occupancy. Only when all `ways`
  /// slots hold valid lines is the LRU victim evicted first (writeback
  /// callback fires if it was dirty). Returns the inserted line's metadata.
  CacheLineMeta& insert(Addr addr, std::uint8_t state, bool dirty);

  /// Remove the line containing `addr` if present; fires writeback if dirty
  /// and `writeback_on_invalidate` is true. Returns true if it was present.
  bool invalidate(Addr addr, bool writeback_on_invalidate = true);

  /// Flush every dirty line (writeback callback per line), keep them
  /// resident and clean. This is the once-per-iteration CPU flush of
  /// Section IV-A2. Returns the number of lines written back.
  std::uint64_t flush_dirty();

  /// Drop everything (no writebacks) — test helper.
  void reset();

  void set_writeback_fn(WritebackFn fn) { writeback_ = std::move(fn); }

  /// Attach/detach the coherence invariant checker (nullptr to detach).
  /// The checker sees lines that leave the cache without a home-agent
  /// state call (LRU evictions, invalidates); reset() is exempt, being a
  /// whole-cache test helper rather than a protocol action.
  void set_observer(check::Observer* obs) { observer_ = obs; }

  bool contains(Addr addr) const { return peek(addr) != nullptr; }
  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return cfg_; }
  std::uint64_t resident_lines() const {
    shard_.assert_held();
    return resident_;
  }

  /// Iterate over every valid line, set by set in index order; within a
  /// set the order is slot order, which depends on the insert/invalidate
  /// history. Like flush_dirty(), it visits only the sets that hold a
  /// valid line, so its cost follows occupancy, not cache size.
  void for_each(const std::function<void(const CacheLineMeta&)>& fn) const;

 private:
  std::size_t set_index(Addr addr) const {
    return (addr / cfg_.line_bytes) % sets_.size();
  }
  /// Account one line becoming valid (+1) or invalid (-1) in set `i`.
  void note_valid(std::size_t i, int delta) TECO_REQUIRES(shard_);
  /// The first set at or after `i` holding a valid line, else sets().
  std::size_t next_occupied(std::size_t i) const TECO_REQUIRES(shard_);

  CacheConfig cfg_;
  // Tag/LRU/stats state is per-shard: the sharded engine gives each shard
  // its own cache slice, and lookups from another shard are a bug, not a
  // miss. See docs/STATIC_ANALYSIS.md.
  core::ShardCapability shard_;
  std::vector<std::vector<CacheLineMeta>> sets_ TECO_SHARD_AFFINE(shard_);
  std::vector<std::uint32_t> valid_ TECO_SHARD_AFFINE(shard_);  ///< Per set.
  /// Bit i of word i / 64: set i holds a valid line.
  std::vector<std::uint64_t> occupied_ TECO_SHARD_AFFINE(shard_);
  std::uint64_t resident_ TECO_SHARD_AFFINE(shard_) = 0;
  WritebackFn writeback_;
  check::Observer* observer_ = nullptr;
  CacheStats stats_ TECO_SHARD_AFFINE(shard_);
  std::uint64_t tick_ TECO_SHARD_AFFINE(shard_) = 0;
};

}  // namespace teco::mem
