// KvCacheManager — session-granular KV residency across HBM and CXL DRAM.
//
// Each admitted session owns a KV-cache that grows by kv_bytes_per_token on
// every generated token. The manager enforces the hbm_kv_bytes budget:
// whenever fresh allocation (prefill commit, decode append, page-in) would
// exceed it, tier::order_victims picks HBM-resident sessions to evict under
// the configured tier::Policy, and the evicted/refetched lines move as
// cxl::Packet streams over the SAME cxl::Link the coherence traffic rides —
// paging contends for wire bandwidth with everything else, and every
// asynchronous landing is a callback on the shared sim::EventQueue.
//
// Entries are indexed by the scheduler's slot handle and keep their request
// id (the KV region's wire address and the victim-order tie-break). Decode
// makes one call per phase (pin, residency, capacity, byte sum, append with
// write-through, unpin), each a loop over the batch in batch order, so
// sends, evictions and counter adds keep the per-session order.
//
// Write-through (ServeConfig::kv_writethrough) applies the paper's update
// protocol to the KV working set: appended lines stream to the CXL home as
// kFlushData the moment they are produced, so the CXL copy is always
// current and evictions are free clean-copy drops. With it off, evictions
// pay a full up-link transfer (invalidation-style domain).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/annotations.hpp"
#include "cxl/link.hpp"
#include "obs/metrics.hpp"
#include "serve/serve.hpp"
#include "sim/event_queue.hpp"

namespace teco::serve {

/// An admitted session's index in the scheduler's pool of max_sessions.
using Slot = std::uint32_t;

/// Count `n` in a report field and in the counter mirroring it.
template <typename N>
void bump(N& total, obs::Counter& c, std::uint64_t n = 1) {
  total += static_cast<N>(n);
  c.add(static_cast<double>(n));
}

class KvCacheManager {
 public:
  /// The queue, link, registry and report must outlive the manager; the
  /// link must already have its metrics registry attached (the manager only
  /// adds serve.kv.* on top of the link's cxl.*/coherence.* wiring). KV
  /// movement accumulates in the report's kv_* and hbm_peak_bytes fields.
  KvCacheManager(const ServeConfig& cfg, sim::EventQueue& q, cxl::Link& link,
                 obs::MetricsRegistry& reg, ServeReport& report);

  /// Register a newly admitted session `id` (no KV yet) in free slot `s`.
  void add_session(Slot s, std::uint64_t id) {
    shard_.assert_held();
    entries_[s].id = id;
  }

  /// Account `bytes` of freshly produced KV in HBM at `t` (prefill commit
  /// or decode append). Capacity must have been ensured beforehand. Under
  /// write-through the new lines stream up-link immediately.
  void append(Slot s, std::uint64_t bytes, sim::Time t);
  void append(std::span<const Slot> batch, std::uint64_t bytes, sim::Time t);

  /// Make every batch member's KV HBM-resident; returns when all of it is
  /// usable: `t` if resident, else the landing of an earlier page-in (a
  /// prefetch partly or fully hides the fetch) or of a new demand fetch.
  sim::Time ensure_resident(std::span<const Slot> batch, sim::Time t);

  /// Issue a page-in ahead of need (no-op when resident or in flight).
  void prefetch(Slot s, sim::Time t) {
    shard_.assert_held();
    page_in(s, t, /*demand=*/false);
  }

  /// Evict policy-ordered victims until `extra` more bytes fit the budget.
  /// Returns the time the capacity is actually available: under kNaiveSwap
  /// evictions are synchronous (the strawman blocks on the link), so the
  /// caller stalls until the last victim drains; other policies free the
  /// HBM the instant the buffer is handed to the link. When nothing is
  /// evictable (all pinned/in-flight) the budget is overcommitted and the
  /// run continues — the overcommits counter records it.
  sim::Time ensure_capacity(std::uint64_t extra, sim::Time t);

  /// Pin/unpin the batch against eviction (current-batch membership).
  void set_pinned(std::span<const Slot> batch, bool pinned);
  /// Scheduler's estimate of when the session next runs (victim ordering).
  void set_next_use_hint(Slot s, sim::Time gap) {
    shard_.assert_held();
    entries_[s].next_use_gap = gap;
  }

  /// Drop every copy and free the slot (request completed).
  void release(Slot s);

  /// KV bytes the batch members hold.
  std::uint64_t bytes(std::span<const Slot> batch) const;
  std::uint64_t hbm_used() const {
    shard_.assert_held();
    return hbm_used_;
  }
  /// Bytes of sessions resident or being paged in; equals hbm_used().
  std::uint64_t charged_bytes() const;

 private:
  struct Entry {
    std::uint64_t id = 0;  ///< Request id: wire address and victim tie-break.
    std::uint64_t bytes = 0;
    bool in_hbm = false;
    bool cxl_clean = false;  ///< CXL copy is current (free eviction).
    bool pinned = false;
    std::uint64_t inflight_tag = 0;  ///< Nonzero: page-in on the wire.
    sim::Time ready = 0.0;           ///< Page-in landing time.
    sim::Time last_used = 0.0;
    sim::Time next_use_gap = 0.0;
  };

  /// Evict one victim at `t`; returns when the HBM bytes are reusable.
  sim::Time evict(Entry& e, sim::Time t) TECO_REQUIRES(shard_);
  /// Page `s` in (demand) or try to (prefetch: only into free headroom, and
  /// resident, in-flight or empty entries are left untouched).
  sim::Time page_in(Slot s, sim::Time t, bool demand) TECO_REQUIRES(shard_);
  void charge_hbm(std::uint64_t bytes) TECO_REQUIRES(shard_);

  const ServeConfig& cfg_;
  sim::EventQueue& q_;
  cxl::Link& link_;
  ServeReport& report_;
  core::ShardCapability shard_;

  std::vector<Entry> entries_ TECO_SHARD_AFFINE(shard_);  ///< By slot.
  std::vector<tier::VictimCandidate> cands_ TECO_SHARD_AFFINE(shard_);
  std::uint64_t hbm_used_ TECO_SHARD_AFFINE(shard_) = 0;
  std::uint64_t next_tag_ TECO_SHARD_AFFINE(shard_) = 0;

  // serve.kv.* instruments, resolved once at construction.
  obs::Counter& c_pagein_bytes_;
  obs::Counter& c_evict_bytes_;
  obs::Counter& c_clean_drops_;
  obs::Counter& c_demand_;
  obs::Counter& c_prefetch_;
  obs::Counter& c_writethrough_bytes_;
  obs::Counter& c_overcommit_;
  obs::Gauge& g_hbm_used_;
  obs::Gauge& g_hbm_peak_;
};

}  // namespace teco::serve
