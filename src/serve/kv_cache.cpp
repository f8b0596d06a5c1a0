#include "serve/kv_cache.hpp"

#include <algorithm>

#include "mem/address.hpp"
#include "obs/causal.hpp"

namespace teco::serve {

namespace {

/// Stream `bytes` of request `id`'s KV as 64-B line packets. The synthetic
/// region address only gives the protocol observer and message counters
/// distinct per-session streams.
cxl::Delivery send_kv(cxl::Link& link, cxl::Direction dir,
                      cxl::MessageType type, std::uint64_t id,
                      std::uint64_t bytes, sim::Time t) {
  const mem::Addr region = (id + 1) << 28;
  return link.send_stream(dir, t,
                          cxl::data_packet(type, region, mem::kLineBytes),
                          (bytes + mem::kLineBytes - 1) / mem::kLineBytes);
}

}  // namespace

KvCacheManager::KvCacheManager(const ServeConfig& cfg, sim::EventQueue& q,
                               cxl::Link& link, obs::MetricsRegistry& reg,
                               ServeReport& report)
    : cfg_(cfg),
      q_(q),
      link_(link),
      report_(report),
      entries_(cfg.max_sessions),
      c_pagein_bytes_(reg.counter("serve.kv.pagein_bytes")),
      c_evict_bytes_(reg.counter("serve.kv.evict_bytes")),
      c_clean_drops_(reg.counter("serve.kv.clean_drops")),
      c_demand_(reg.counter("serve.kv.demand_fetches")),
      c_prefetch_(reg.counter("serve.kv.prefetches")),
      c_writethrough_bytes_(reg.counter("serve.kv.writethrough_bytes")),
      c_overcommit_(reg.counter("serve.kv.overcommits")),
      g_hbm_used_(reg.gauge("serve.kv.hbm_used_bytes")),
      g_hbm_peak_(reg.gauge("serve.kv.hbm_peak_bytes")) {}

void KvCacheManager::charge_hbm(std::uint64_t bytes) {
  hbm_used_ += bytes;
  if (hbm_used_ > report_.hbm_peak_bytes) {
    report_.hbm_peak_bytes = hbm_used_;
    g_hbm_peak_.set(static_cast<double>(hbm_used_));
  }
  g_hbm_used_.set(static_cast<double>(hbm_used_));
}

void KvCacheManager::append(Slot s, std::uint64_t bytes, sim::Time t) {
  shard_.assert_held();
  Entry& e = entries_[s];
  e.bytes += bytes;
  e.in_hbm = true;  // Fresh KV is produced in HBM by the running kernel.
  e.last_used = t;
  charge_hbm(bytes);
  if (cfg_.kv_writethrough) {
    // Update-push: the new lines stream to the CXL home as they are
    // produced, keeping the far copy current (evictions become drops).
    send_kv(link_, cxl::Direction::kDeviceToCpu, cxl::MessageType::kFlushData,
            e.id, bytes, t);
    c_writethrough_bytes_.add(static_cast<double>(bytes));
    // A clean copy stays clean; a first append establishes one.
    e.cxl_clean = true;
  } else {
    e.cxl_clean = false;
  }
}

void KvCacheManager::append(std::span<const Slot> batch, std::uint64_t bytes,
                            sim::Time t) {
  for (const Slot s : batch) append(s, bytes, t);
}

sim::Time KvCacheManager::evict(Entry& e, sim::Time t) {
  e.in_hbm = false;
  hbm_used_ -= e.bytes;
  g_hbm_used_.set(static_cast<double>(hbm_used_));
  if (e.cxl_clean) {
    // The CXL home already holds every line (write-through): dropping the
    // HBM copy costs nothing on the wire.
    bump(report_.kv_clean_drops, c_clean_drops_);
    return t;
  }
  const cxl::Delivery d =
      send_kv(link_, cxl::Direction::kDeviceToCpu,
              cxl::MessageType::kFlushData, e.id, e.bytes, t);
  e.cxl_clean = true;
  bump(report_.kv_evict_bytes, c_evict_bytes_, e.bytes);
  return d.delivered;
}

sim::Time KvCacheManager::ensure_capacity(std::uint64_t extra, sim::Time t) {
  shard_.assert_held();
  sim::Time avail = t;
  if (hbm_used_ + extra <= cfg_.hbm_kv_bytes) return avail;
  if (cfg_.policy == tier::Policy::kAllHbm) {
    // Reference policy: unbounded HBM, never evict.
    c_overcommit_.add();
    return avail;
  }
  // Ties break by request id, not slot; the slot rides as the handle.
  cands_.clear();
  for (std::size_t s = 0; s < entries_.size(); ++s) {
    const Entry& e = entries_[s];
    if (!e.in_hbm || e.pinned || e.inflight_tag != 0 || e.bytes == 0) {
      continue;
    }
    cands_.push_back(tier::VictimCandidate{e.id, e.bytes, t - e.last_used,
                                           e.next_use_gap, s});
  }
  tier::order_victims(cfg_.policy, cands_);
  for (const auto& c : cands_) {
    if (hbm_used_ + extra <= cfg_.hbm_kv_bytes) break;
    const sim::Time done = evict(entries_[c.handle], t);
    if (cfg_.policy == tier::Policy::kNaiveSwap) {
      // The strawman swaps synchronously: the producer blocks until the
      // eviction drains off the link.
      avail = std::max(avail, done);
    }
  }
  if (hbm_used_ + extra > cfg_.hbm_kv_bytes) c_overcommit_.add();
  return avail;
}

sim::Time KvCacheManager::page_in(Slot s, sim::Time t, bool demand) {
  Entry& e = entries_[s];
  if (!demand && (e.in_hbm || e.inflight_tag != 0 || e.bytes == 0)) return t;
  e.last_used = t;
  if (e.in_hbm) return t;
  if (e.inflight_tag != 0) return std::max(t, e.ready);
  if (e.bytes == 0) {
    e.in_hbm = true;
    return t;
  }
  // Prefetch is opportunistic: it only ever consumes true headroom. If it
  // could evict, the lookahead would ping-pong with the eviction policy —
  // demand growth evicts the farthest-next-use sessions, the prefetch
  // horizon covers exactly those sessions and refetches them, and the
  // wasted wire time delays the demand fetches it was meant to hide.
  if (!demand && hbm_used_ + e.bytes > cfg_.hbm_kv_bytes) return t;
  // Demand page-in: free budget first (victim evictions may themselves
  // occupy the up-link while the fetch rides the down-link — full duplex),
  // then stream the KV lines down and flip residency when the tail lands.
  const sim::Time issue = demand ? ensure_capacity(e.bytes, t) : t;
  charge_hbm(e.bytes);  // Reserve: the landing buffer is committed now.
  const cxl::Delivery d = send_kv(link_, cxl::Direction::kCpuToDevice,
                                  cxl::MessageType::kData, e.id, e.bytes,
                                  issue);
  const std::uint64_t tag = ++next_tag_;
  e.inflight_tag = tag;
  e.ready = d.delivered;
  bump(report_.kv_pagein_bytes, c_pagein_bytes_, e.bytes);
  bump(demand ? report_.kv_demand_fetches : report_.kv_prefetches,
       demand ? c_demand_ : c_prefetch_);
  // The residency flip is the page-in landing off the down link — tag it
  // so a causal sink on the queue records why it ran. Tags are unique, so
  // a flip whose session was released meanwhile (slot reused or not)
  // finds a different tag and no-ops.
  sim::TagScope cat_scope(q_,
                          obs::causal::tag(obs::causal::Category::kCxlDown));
  q_.schedule_at(d.delivered, [this, s, tag] {
    shard_.assert_held();
    Entry& landed = entries_[s];
    if (landed.inflight_tag != tag) return;
    landed.inflight_tag = 0;
    landed.in_hbm = true;
  });
  return d.delivered;
}

sim::Time KvCacheManager::ensure_resident(std::span<const Slot> batch,
                                          sim::Time t) {
  shard_.assert_held();
  sim::Time ready = t;
  for (const Slot s : batch) {
    ready = std::max(ready, page_in(s, t, /*demand=*/true));
  }
  return ready;
}

void KvCacheManager::set_pinned(std::span<const Slot> batch, bool pinned) {
  shard_.assert_held();
  for (const Slot s : batch) entries_[s].pinned = pinned;
}

void KvCacheManager::release(Slot s) {
  shard_.assert_held();
  Entry& e = entries_[s];
  // In-flight page-ins keep their HBM reservation until release; both the
  // resident and the reserved case charge hbm_used_, so one refund covers
  // them. The pending flip callback no-ops once the entry is reset, which
  // also leaves the slot empty for add_session.
  if (e.in_hbm || e.inflight_tag != 0) {
    hbm_used_ -= e.bytes;
    g_hbm_used_.set(static_cast<double>(hbm_used_));
  }
  e = Entry{};
}

std::uint64_t KvCacheManager::bytes(std::span<const Slot> batch) const {
  shard_.assert_held();
  std::uint64_t sum = 0;
  for (const Slot s : batch) sum += entries_[s].bytes;
  return sum;
}

std::uint64_t KvCacheManager::charged_bytes() const {
  shard_.assert_held();
  std::uint64_t sum = 0;
  for (const Entry& e : entries_) {
    if (e.in_hbm || e.inflight_tag != 0) sum += e.bytes;
  }
  return sum;
}

}  // namespace teco::serve
