// A verbatim copy of the map-based ServeScheduler and KvCacheManager that
// keyed sessions and KV entries by request id (std::map lookups per token,
// a std::deque for the running queue, one KV call per session per phase).
// serve_test runs it side by side with teco::serve as an oracle: the
// slot-handle implementation must reproduce its reports, histograms,
// registry snapshots, channel stats and link send sequence exactly. Only
// the namespace and `inline` markers differ from the original.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "core/annotations.hpp"
#include "cxl/link.hpp"
#include "mem/address.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "serve/arrival.hpp"
#include "serve/serve.hpp"
#include "sim/event_queue.hpp"

namespace ref {

using namespace teco;
using serve::ArrivalProcess;
using serve::LatencyQuantiles;
using serve::Request;
using serve::ServeConfig;
using serve::ServeReport;
using serve::kv_bytes_per_token;

class KvCacheManager {
 public:
  /// Aggregate movement accounting, mirrored into serve.kv.* counters.
  struct Stats {
    std::uint64_t pagein_bytes = 0;
    std::uint64_t evict_bytes = 0;  ///< Wire evictions only.
    std::uint64_t clean_drops = 0;
    std::uint64_t demand_fetches = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t writethrough_bytes = 0;
    std::uint64_t overcommits = 0;  ///< Budget exceeded, nothing evictable.
    std::uint64_t hbm_peak = 0;
  };

  /// The queue, link and registry must outlive the manager; the link must
  /// already have its metrics registry attached (the manager only adds the
  /// serve.kv.* namespace on top of the link's cxl.*/coherence.* wiring).
  KvCacheManager(const ServeConfig& cfg, sim::EventQueue& q, cxl::Link& link,
                 obs::MetricsRegistry& reg);

  /// Register a newly admitted session (no KV yet).
  void add_session(std::uint64_t id);

  /// Account `bytes` of freshly produced KV in HBM at `t` (prefill commit
  /// or decode append). Capacity must have been ensured beforehand. Under
  /// write-through the new lines stream up-link immediately.
  void append(std::uint64_t id, std::uint64_t bytes, sim::Time t);

  /// Make `id`'s KV HBM-resident. Returns the time it is usable: `t` when
  /// already resident, the landing time of the in-flight page-in when one
  /// was issued earlier (a prefetch partially or fully hides the fetch), or
  /// the landing time of a freshly issued demand fetch.
  sim::Time ensure_resident(std::uint64_t id, sim::Time t, bool demand);

  /// Issue a page-in ahead of need (no-op when resident or in flight).
  void prefetch(std::uint64_t id, sim::Time t);

  /// Evict policy-ordered victims until `extra` more bytes fit the budget.
  /// Returns the time the capacity is actually available: under kNaiveSwap
  /// evictions are synchronous (the strawman blocks on the link), so the
  /// caller stalls until the last victim drains; other policies free the
  /// HBM the instant the buffer is handed to the link. When nothing is
  /// evictable (all pinned/in-flight) the budget is overcommitted and the
  /// run continues — the overcommits counter records it.
  sim::Time ensure_capacity(std::uint64_t extra, sim::Time t);

  /// Pin/unpin a session against eviction (current-batch membership).
  void set_pinned(std::uint64_t id, bool pinned);
  /// Recency bump for victim selection.
  void touch(std::uint64_t id, sim::Time t);
  /// Scheduler's estimate of when the session next runs (victim ordering).
  void set_next_use_hint(std::uint64_t id, sim::Time gap);

  /// Drop every copy and forget the session (request completed).
  void release(std::uint64_t id);

  bool resident(std::uint64_t id) const;
  std::uint64_t session_bytes(std::uint64_t id) const;
  std::uint64_t hbm_used() const {
    shard_.assert_held();
    return hbm_used_;
  }
  const Stats& stats() const {
    shard_.assert_held();
    return stats_;
  }

 private:
  struct Entry {
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
  sim::Time evict(std::uint64_t id, Entry& e, sim::Time t)
      TECO_REQUIRES(shard_);
  void charge_hbm(std::uint64_t bytes) TECO_REQUIRES(shard_);

  const ServeConfig& cfg_;
  sim::EventQueue& q_;
  cxl::Link& link_;
  core::ShardCapability shard_;

  std::map<std::uint64_t, Entry> entries_ TECO_SHARD_AFFINE(shard_);
  std::uint64_t hbm_used_ TECO_SHARD_AFFINE(shard_) = 0;
  std::uint64_t next_tag_ TECO_SHARD_AFFINE(shard_) = 0;
  Stats stats_ TECO_SHARD_AFFINE(shard_);

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

namespace kv_detail {

/// 64-B cache lines a KV blob occupies on the wire.
inline std::uint64_t lines_for(std::uint64_t bytes) {
  return (bytes + mem::kLineBytes - 1) / mem::kLineBytes;
}

/// Synthetic line address for a session's KV region; only used so the
/// protocol observer and message counters see distinct per-session streams.
inline mem::Addr kv_addr(std::uint64_t id) { return (id + 1) << 28; }

}  // namespace kv_detail

using namespace kv_detail;

inline KvCacheManager::KvCacheManager(const ServeConfig& cfg,
                                      sim::EventQueue& q, cxl::Link& link,
                                      obs::MetricsRegistry& reg)
    : cfg_(cfg),
      q_(q),
      link_(link),
      c_pagein_bytes_(reg.counter("serve.kv.pagein_bytes")),
      c_evict_bytes_(reg.counter("serve.kv.evict_bytes")),
      c_clean_drops_(reg.counter("serve.kv.clean_drops")),
      c_demand_(reg.counter("serve.kv.demand_fetches")),
      c_prefetch_(reg.counter("serve.kv.prefetches")),
      c_writethrough_bytes_(reg.counter("serve.kv.writethrough_bytes")),
      c_overcommit_(reg.counter("serve.kv.overcommits")),
      g_hbm_used_(reg.gauge("serve.kv.hbm_used_bytes")),
      g_hbm_peak_(reg.gauge("serve.kv.hbm_peak_bytes")) {}

inline void KvCacheManager::add_session(std::uint64_t id) {
  shard_.assert_held();
  entries_[id] = Entry{};
}

inline void KvCacheManager::charge_hbm(std::uint64_t bytes) {
  hbm_used_ += bytes;
  if (hbm_used_ > stats_.hbm_peak) {
    stats_.hbm_peak = hbm_used_;
    g_hbm_peak_.set(static_cast<double>(hbm_used_));
  }
  g_hbm_used_.set(static_cast<double>(hbm_used_));
}

inline void KvCacheManager::append(std::uint64_t id, std::uint64_t bytes,
                                   sim::Time t) {
  shard_.assert_held();
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  e.bytes += bytes;
  e.in_hbm = true;  // Fresh KV is produced in HBM by the running kernel.
  e.last_used = t;
  charge_hbm(bytes);
  if (cfg_.kv_writethrough) {
    // Update-push: the new lines stream to the CXL home as they are
    // produced, keeping the far copy current (evictions become drops).
    link_.send_stream(
        cxl::Direction::kDeviceToCpu, t,
        cxl::data_packet(cxl::MessageType::kFlushData, kv_addr(id),
                         mem::kLineBytes),
        lines_for(bytes));
    stats_.writethrough_bytes += bytes;
    c_writethrough_bytes_.add(static_cast<double>(bytes));
    // A clean copy stays clean; a first append establishes one.
    e.cxl_clean = true;
  } else {
    e.cxl_clean = false;
  }
}

inline sim::Time KvCacheManager::evict(std::uint64_t id, Entry& e,
                                       sim::Time t) {
  e.in_hbm = false;
  hbm_used_ -= e.bytes;
  g_hbm_used_.set(static_cast<double>(hbm_used_));
  if (e.cxl_clean) {
    // The CXL home already holds every line (write-through): dropping the
    // HBM copy costs nothing on the wire.
    ++stats_.clean_drops;
    c_clean_drops_.add();
    return t;
  }
  const cxl::Delivery d = link_.send_stream(
      cxl::Direction::kDeviceToCpu, t,
      cxl::data_packet(cxl::MessageType::kFlushData, kv_addr(id),
                       mem::kLineBytes),
      lines_for(e.bytes));
  e.cxl_clean = true;
  stats_.evict_bytes += e.bytes;
  c_evict_bytes_.add(static_cast<double>(e.bytes));
  return d.delivered;
}

inline sim::Time KvCacheManager::ensure_capacity(std::uint64_t extra,
                                                 sim::Time t) {
  shard_.assert_held();
  sim::Time avail = t;
  if (hbm_used_ + extra <= cfg_.hbm_kv_bytes) return avail;
  if (cfg_.policy == tier::Policy::kAllHbm) {
    // Reference policy: unbounded HBM, never evict.
    ++stats_.overcommits;
    c_overcommit_.add();
    return avail;
  }
  std::vector<tier::VictimCandidate> cands;
  for (const auto& [id, e] : entries_) {
    if (!e.in_hbm || e.pinned || e.inflight_tag != 0 || e.bytes == 0) {
      continue;
    }
    cands.push_back(tier::VictimCandidate{id, e.bytes, t - e.last_used,
                                          e.next_use_gap});
  }
  tier::order_victims(cfg_.policy, cands);
  for (const auto& c : cands) {
    if (hbm_used_ + extra <= cfg_.hbm_kv_bytes) break;
    const sim::Time done = evict(c.id, entries_.at(c.id), t);
    if (cfg_.policy == tier::Policy::kNaiveSwap) {
      // The strawman swaps synchronously: the producer blocks until the
      // eviction drains off the link.
      avail = std::max(avail, done);
    }
  }
  if (hbm_used_ + extra > cfg_.hbm_kv_bytes) {
    ++stats_.overcommits;
    c_overcommit_.add();
  }
  return avail;
}

inline sim::Time KvCacheManager::ensure_resident(std::uint64_t id,
                                                 sim::Time t, bool demand) {
  shard_.assert_held();
  auto it = entries_.find(id);
  if (it == entries_.end()) return t;
  Entry& e = it->second;
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
  const cxl::Delivery d = link_.send_stream(
      cxl::Direction::kCpuToDevice, issue,
      cxl::data_packet(cxl::MessageType::kData, kv_addr(id), mem::kLineBytes),
      lines_for(e.bytes));
  const std::uint64_t tag = ++next_tag_;
  e.inflight_tag = tag;
  e.ready = d.delivered;
  stats_.pagein_bytes += e.bytes;
  c_pagein_bytes_.add(static_cast<double>(e.bytes));
  if (demand) {
    ++stats_.demand_fetches;
    c_demand_.add();
  } else {
    ++stats_.prefetches;
    c_prefetch_.add();
  }
  // The residency flip is the page-in landing off the down link — tag it
  // so a causal sink on the queue records why it ran.
  sim::TagScope cat_scope(q_,
                          obs::causal::tag(obs::causal::Category::kCxlDown));
  q_.schedule_at(d.delivered, [this, id, tag] {
    shard_.assert_held();
    auto fit = entries_.find(id);
    if (fit == entries_.end() || fit->second.inflight_tag != tag) {
      return;  // Session released (or superseded) while on the wire.
    }
    fit->second.inflight_tag = 0;
    fit->second.in_hbm = true;
  });
  return d.delivered;
}

inline void KvCacheManager::prefetch(std::uint64_t id, sim::Time t) {
  shard_.assert_held();
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  const Entry& e = it->second;
  if (e.in_hbm || e.inflight_tag != 0 || e.bytes == 0) return;
  ensure_resident(id, t, /*demand=*/false);
}

inline void KvCacheManager::set_pinned(std::uint64_t id, bool pinned) {
  shard_.assert_held();
  auto it = entries_.find(id);
  if (it != entries_.end()) it->second.pinned = pinned;
}

inline void KvCacheManager::touch(std::uint64_t id, sim::Time t) {
  shard_.assert_held();
  auto it = entries_.find(id);
  if (it != entries_.end()) it->second.last_used = t;
}

inline void KvCacheManager::set_next_use_hint(std::uint64_t id,
                                              sim::Time gap) {
  shard_.assert_held();
  auto it = entries_.find(id);
  if (it != entries_.end()) it->second.next_use_gap = gap;
}

inline void KvCacheManager::release(std::uint64_t id) {
  shard_.assert_held();
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  // In-flight page-ins keep their HBM reservation until release; both the
  // resident and the reserved case charge hbm_used_, so one refund covers
  // them. The pending flip callback no-ops once the entry is gone.
  if (it->second.in_hbm || it->second.inflight_tag != 0) {
    hbm_used_ -= it->second.bytes;
    g_hbm_used_.set(static_cast<double>(hbm_used_));
  }
  entries_.erase(it);
}

inline bool KvCacheManager::resident(std::uint64_t id) const {
  shard_.assert_held();
  auto it = entries_.find(id);
  return it != entries_.end() && it->second.in_hbm;
}

inline std::uint64_t KvCacheManager::session_bytes(std::uint64_t id) const {
  shard_.assert_held();
  auto it = entries_.find(id);
  return it == entries_.end() ? 0 : it->second.bytes;
}

class ServeScheduler {
 public:
  /// `reg` may be null, in which case the scheduler uses a private
  /// registry; pass one to share a namespace with other components or to
  /// snapshot serve.* alongside cxl.*. An external registry must outlive
  /// the scheduler.
  explicit ServeScheduler(const ServeConfig& cfg,
                          obs::MetricsRegistry* reg = nullptr);
  ~ServeScheduler();
  ServeScheduler(const ServeScheduler&) = delete;
  ServeScheduler& operator=(const ServeScheduler&) = delete;

  /// Run the whole arrival process to completion and return the report.
  ServeReport run();

  /// The SLO predicate (admission implied by having latencies at all): a
  /// request attains its SLO when TTFT met slo_ttft and the mean
  /// inter-token latency met the (possibly derived) per-token budget.
  /// Exposed for the accounting-math unit test.
  static bool attains_slo(const ServeConfig& cfg, sim::Time ttft,
                          sim::Time mean_tpot);

  obs::MetricsRegistry& registry() { return *reg_; }
  sim::EventQueue& queue() { return q_; }
  cxl::Link& link() { return link_; }
  const KvCacheManager& kv() const { return kv_; }
  const ServeReport& report() const {
    shard_.assert_held();
    return report_;
  }

  /// Wire the causal DAG (must outlive the scheduler; nullptr = off): the
  /// graph becomes the queue's provenance sink, KV landings are tagged,
  /// and every iteration appends stall/compute/idle nodes to an explicit
  /// chain. Each prefill also records the request's TTFT terminal so
  /// request latency can be attributed end-to-end.
  void set_causal(obs::causal::CausalGraph* g) {
    shard_.assert_held();
    causal_ = g;
    q_.set_causal_sink(g);
  }

  /// One record per prefilled request (causal wiring only): the TTFT
  /// window [arrival, first token] and the chain node it ended on —
  /// obs::causal::critical_path over it attributes the wait to earlier
  /// iterations' compute, KV stalls, and idle gaps.
  struct TtftRecord {
    std::uint64_t id = 0;
    sim::Time arrival = 0.0;
    sim::Time first_token = 0.0;
    std::uint32_t terminal = sim::kNoCausalNode;
  };
  const std::vector<TtftRecord>& ttft_records() const {
    shard_.assert_held();
    return ttft_records_;
  }

 private:
  struct Session {
    Request req;
    sim::Time prefill_end = 0.0;
    sim::Time last_token = 0.0;
    sim::Time ttft = 0.0;
    std::uint32_t generated = 0;
  };

  void drain_arrivals() TECO_REQUIRES(shard_);
  void prefill_iteration() TECO_REQUIRES(shard_);
  void decode_iteration() TECO_REQUIRES(shard_);
  void complete(std::uint64_t id, sim::Time t) TECO_REQUIRES(shard_);
  void finalize() TECO_REQUIRES(shard_);
  /// Append a [from, to] node to the iteration chain (no-op unwired).
  void causal_note(obs::causal::Category cat, sim::Time from, sim::Time to)
      TECO_REQUIRES(shard_);

  ServeConfig cfg_;
  std::uint64_t kvpt_;  ///< kv_bytes_per_token(cfg_.model).
  obs::MetricsRegistry local_reg_;
  obs::MetricsRegistry* reg_;
  core::ShardCapability shard_;

  sim::EventQueue q_;
  /// The serve engine owns its queue outright: every arrival, decode step,
  /// and KV migration event runs on this shard.
  TECO_QUEUE_CONTEXT(q_);
  cxl::Link link_;
  KvCacheManager kv_;
  ArrivalProcess arrivals_;

  std::map<std::uint64_t, Session> sessions_ TECO_SHARD_AFFINE(shard_);
  std::deque<std::uint64_t> waiting_ TECO_SHARD_AFFINE(shard_);
  std::deque<std::uint64_t> running_ TECO_SHARD_AFFINE(shard_);
  std::optional<Request> pending_ TECO_SHARD_AFFINE(shard_);
  ServeReport report_ TECO_SHARD_AFFINE(shard_);
  obs::causal::CausalGraph* causal_ TECO_SHARD_AFFINE(shard_) = nullptr;
  std::uint32_t causal_last_ TECO_SHARD_AFFINE(shard_) = sim::kNoCausalNode;
  std::vector<TtftRecord> ttft_records_ TECO_SHARD_AFFINE(shard_);

  obs::Hist& ttft_hist_;
  obs::Hist& tpot_hist_;
  obs::Counter& c_arrivals_;
  obs::Counter& c_admitted_;
  obs::Counter& c_rejected_;
  obs::Counter& c_completed_;
  obs::Counter& c_slo_;
  obs::Counter& c_tokens_;
  obs::Counter& c_prefill_iters_;
  obs::Counter& c_decode_iters_;
  obs::Counter& c_prefill_tokens_;
  obs::Counter& c_stall_us_;
};

namespace sched_detail {
constexpr double kSecToUs = 1e6;
}  // namespace sched_detail

using namespace sched_detail;

inline ServeScheduler::ServeScheduler(const ServeConfig& cfg,
                                      obs::MetricsRegistry* reg)
    : cfg_(cfg),
      kvpt_(kv_bytes_per_token(cfg_.model)),
      reg_(reg != nullptr ? reg : &local_reg_),
      kv_(cfg_, q_, link_, *reg_),
      arrivals_(cfg_),
      // TTFT up to 60 s at 10 ms resolution, inter-token up to 2 s at
      // 0.5 ms: wide enough that overload sweeps keep honest p999s.
      ttft_hist_(reg_->histogram("serve.ttft_us", 0.0, 60e6, 6000)),
      tpot_hist_(reg_->histogram("serve.tpot_us", 0.0, 2e6, 4000)),
      c_arrivals_(reg_->counter("serve.arrivals")),
      c_admitted_(reg_->counter("serve.admitted")),
      c_rejected_(reg_->counter("serve.rejected")),
      c_completed_(reg_->counter("serve.completed")),
      c_slo_(reg_->counter("serve.slo_attained")),
      c_tokens_(reg_->counter("serve.tokens")),
      c_prefill_iters_(reg_->counter("serve.iterations.prefill")),
      c_decode_iters_(reg_->counter("serve.iterations.decode")),
      c_prefill_tokens_(reg_->counter("serve.prefill_tokens")),
      c_stall_us_(reg_->counter("serve.kv.stall_us")) {
  link_.set_metrics(reg_);
}

inline ServeScheduler::~ServeScheduler() {
  // Fold the link's deferred cxl.* deltas into the registry, then detach
  // its flusher so an external registry may outlive this scheduler.
  (void)reg_->value("cxl.down.bytes");
  link_.set_metrics(nullptr);
}

inline bool ServeScheduler::attains_slo(const ServeConfig& cfg,
                                        sim::Time ttft, sim::Time mean_tpot) {
  return ttft <= cfg.slo_ttft && mean_tpot <= cfg.effective_slo_tpot();
}

inline void ServeScheduler::causal_note(obs::causal::Category cat,
                                        sim::Time from, sim::Time to) {
  if (causal_ == nullptr || to <= from) return;
  causal_last_ = causal_->add(cat, to, causal_last_, from);
}

inline void ServeScheduler::drain_arrivals() {
  while (pending_.has_value() && pending_->arrival <= q_.now()) {
    const Request r = *pending_;
    c_arrivals_.add();
    if (sessions_.size() >= cfg_.max_sessions) {
      ++report_.rejected;
      c_rejected_.add();
    } else {
      ++report_.admitted;
      c_admitted_.add();
      sessions_.emplace(r.id, Session{r, 0.0, 0.0, 0.0, 0});
      waiting_.push_back(r.id);
      kv_.add_session(r.id);
    }
    pending_ = arrivals_.next();
  }
}

inline void ServeScheduler::prefill_iteration() {
  const sim::Time t = q_.now();
  std::vector<std::uint64_t> group;
  std::uint64_t tokens = 0;
  std::uint64_t kv_need = 0;
  while (!waiting_.empty()) {
    const std::uint64_t id = waiting_.front();
    const std::uint32_t prompt = sessions_.at(id).req.prompt_tokens;
    if (!group.empty() && tokens + prompt > cfg_.max_prefill_tokens) break;
    group.push_back(id);
    tokens += prompt;
    kv_need += static_cast<std::uint64_t>(prompt) * kvpt_;
    waiting_.pop_front();
  }
  const sim::Time avail = kv_.ensure_capacity(kv_need, t);
  if (avail > t) {
    report_.kv_stall += avail - t;
    c_stall_us_.add((avail - t) * kSecToUs);
    causal_note(obs::causal::Category::kEvictStall, t, avail);
  }
  const sim::Time end = avail + cfg_.cost.prefill_time(cfg_.model, tokens);
  causal_note(obs::causal::Category::kCompute, avail, end);
  for (const std::uint64_t id : group) {
    Session& s = sessions_.at(id);
    s.prefill_end = end;
    s.last_token = end;
    s.generated = 1;  // Prefill emits the request's first token.
    s.ttft = end - s.req.arrival;
    ttft_hist_.observe(s.ttft * kSecToUs);
    if (causal_ != nullptr) {
      ttft_records_.push_back({id, s.req.arrival, end, causal_last_});
    }
    ++report_.tokens_generated;
    c_tokens_.add();
    kv_.append(id, static_cast<std::uint64_t>(s.req.prompt_tokens) * kvpt_,
               end);
    if (s.generated >= s.req.decode_tokens) {
      complete(id, end);
    } else {
      running_.push_back(id);
    }
  }
  c_prefill_iters_.add();
  c_prefill_tokens_.add(static_cast<double>(tokens));
  if (end > report_.makespan) report_.makespan = end;
  q_.run_until(end);
}

inline void ServeScheduler::decode_iteration() {
  const sim::Time t = q_.now();
  const std::size_t width = std::min(cfg_.max_batch, running_.size());
  std::vector<std::uint64_t> batch(running_.begin(),
                                   running_.begin() +
                                       static_cast<std::ptrdiff_t>(width));
  for (const std::uint64_t id : batch) kv_.set_pinned(id, true);
  // Residency barrier: every batch member's KV must be back in HBM before
  // the kernel launches. Prefetched sessions land (partially) hidden;
  // under kNaiveSwap everything is a fully exposed demand fetch.
  sim::Time ready = t;
  for (const std::uint64_t id : batch) {
    ready = std::max(ready, kv_.ensure_resident(id, t, /*demand=*/true));
  }
  const sim::Time avail =
      kv_.ensure_capacity(static_cast<std::uint64_t>(width) * kvpt_, t);
  const sim::Time start = std::max(ready, avail);
  if (start > t) {
    report_.kv_stall += start - t;
    c_stall_us_.add((start - t) * kSecToUs);
    causal_note(ready >= avail ? obs::causal::Category::kDemandFetch
                               : obs::causal::Category::kEvictStall,
                t, start);
  }
  // Lookahead paging, issued BEFORE this iteration's compute so the wire
  // works while the kernel runs: the sessions at positions [width,
  // width + horizon) are the next rotations' batches. The current batch is
  // still pinned, so prefetch evictions can only take colder sessions; a
  // prefetch that would overcommit the budget is skipped entirely (see
  // KvCacheManager::ensure_resident).
  if (cfg_.policy != tier::Policy::kNaiveSwap &&
      cfg_.policy != tier::Policy::kAllHbm && cfg_.prefetch_depth > 0) {
    const std::size_t horizon = std::min(
        running_.size() - width, cfg_.max_batch * cfg_.prefetch_depth);
    for (std::size_t i = 0; i < horizon; ++i) {
      kv_.prefetch(running_[width + i], start);
    }
  }
  std::uint64_t batch_kv = 0;
  for (const std::uint64_t id : batch) {
    batch_kv += kv_.session_bytes(id) + kvpt_;
  }
  const sim::Time end = start + cfg_.cost.decode_time(cfg_.model, batch_kv);
  causal_note(obs::causal::Category::kCompute, start, end);
  for (const std::uint64_t id : batch) {
    Session& s = sessions_.at(id);
    kv_.append(id, kvpt_, end);
    ++s.generated;
    ++report_.tokens_generated;
    c_tokens_.add();
    tpot_hist_.observe((end - s.last_token) * kSecToUs);
    s.last_token = end;
  }
  for (const std::uint64_t id : batch) kv_.set_pinned(id, false);
  // Rotate: finished sessions leave, the rest requeue at the back, so
  // batch membership cycles through all active sessions.
  running_.erase(running_.begin(),
                 running_.begin() + static_cast<std::ptrdiff_t>(width));
  for (const std::uint64_t id : batch) {
    if (sessions_.at(id).generated >= sessions_.at(id).req.decode_tokens) {
      complete(id, end);
    } else {
      running_.push_back(id);
    }
  }
  // Victim-ordering hints for the next iteration's evictions: a session's
  // next turn is its queue position in whole rotations.
  const sim::Time iter_est = end - start;
  std::size_t pos = 0;
  for (const std::uint64_t id : running_) {
    kv_.set_next_use_hint(
        id, static_cast<double>(pos / cfg_.max_batch) * iter_est);
    ++pos;
  }
  c_decode_iters_.add();
  if (end > report_.makespan) report_.makespan = end;
  q_.run_until(end);
}

inline void ServeScheduler::complete(std::uint64_t id, sim::Time t) {
  Session& s = sessions_.at(id);
  const sim::Time mean_tpot =
      s.generated > 1
          ? (t - s.prefill_end) / static_cast<double>(s.generated - 1)
          : 0.0;
  ++report_.completed;
  c_completed_.add();
  if (attains_slo(cfg_, s.ttft, mean_tpot)) {
    ++report_.slo_attained;
    c_slo_.add();
  }
  kv_.release(id);
  sessions_.erase(id);
}

inline void ServeScheduler::finalize() {
  report_.offered = arrivals_.emitted();
  report_.ttft = LatencyQuantiles{ttft_hist_.quantile(0.5) / kSecToUs,
                                  ttft_hist_.quantile(0.99) / kSecToUs,
                                  ttft_hist_.quantile(0.999) / kSecToUs};
  report_.tpot = LatencyQuantiles{tpot_hist_.quantile(0.5) / kSecToUs,
                                  tpot_hist_.quantile(0.99) / kSecToUs,
                                  tpot_hist_.quantile(0.999) / kSecToUs};
  const KvCacheManager::Stats& ks = kv_.stats();
  report_.kv_pagein_bytes = ks.pagein_bytes;
  report_.kv_evict_bytes = ks.evict_bytes;
  report_.kv_clean_drops = ks.clean_drops;
  report_.kv_demand_fetches = ks.demand_fetches;
  report_.kv_prefetches = ks.prefetches;
  report_.hbm_peak_bytes = ks.hbm_peak;
}

inline ServeReport ServeScheduler::run() {
  shard_.assert_held();
  pending_ = arrivals_.next();
  for (;;) {
    drain_arrivals();
    if (waiting_.empty() && running_.empty()) {
      if (!pending_.has_value()) break;
      causal_note(obs::causal::Category::kIdle, q_.now(), pending_->arrival);
      q_.run_until(pending_->arrival);  // Idle until the next arrival.
      continue;
    }
    if (!waiting_.empty() && running_.size() < cfg_.max_batch) {
      prefill_iteration();
    } else {
      decode_iteration();
    }
  }
  finalize();
  return report_;
}

}  // namespace ref
