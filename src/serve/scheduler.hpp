// ServeScheduler — continuous batching with prefill/decode asymmetry.
//
// The executor alternates two iteration shapes over one simulated device:
//
//   prefill  — compute-bound: FCFS waiting sessions are packed into a batch
//              capped by max_prefill_tokens; the iteration emits each
//              session's first token (TTFT = arrival -> iteration end) and
//              commits its prompt KV into HBM.
//   decode   — memory-bound: the first max_batch running sessions each
//              generate one token; iteration time scales with the weight
//              sweep plus the batch's resident KV bytes. Afterwards the
//              batch rotates to the back of the running queue, so when
//              active sessions exceed the batch width, membership cycles —
//              which is precisely what creates hot/cold KV paging pressure.
//
// Prefill takes priority while the decode batch has room (standard
// continuous batching: fill the batch, then stream tokens). Admission is
// capacity-based: arrivals beyond max_sessions concurrent sessions are
// rejected and count against SLO attainment.
//
// A request is named by its slot in a pool of exactly max_sessions entries
// (memory bounded by admission capacity, not request count) from admission
// to completion: the waiting and running queues are fixed rings of slots and
// KvCacheManager indexes its entries by slot, so decode does no lookups.
//
// All asynchronous effects — KV page-in landings, link deliveries — are
// events on the scheduler's sim::EventQueue, and all KV movement rides the
// scheduler's cxl::Link (metrics attached), so serve.* and cxl.*/coherence.*
// counters describe one shared wire. Every random draw comes from the
// seeded ArrivalProcess: two runs from the same ServeConfig are
// bit-identical, registry snapshots included.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "cxl/link.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "serve/arrival.hpp"
#include "serve/kv_cache.hpp"
#include "serve/serve.hpp"
#include "sim/event_queue.hpp"

namespace teco::serve {

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

  /// One message per violated invariant: drained arrivals = completed +
  /// live + rejected; hbm_used = bytes of sessions resident or being paged
  /// in; live + free slots = max_sessions. Read-only (events may call it).
  std::vector<std::string> check_invariants() const;

  obs::MetricsRegistry& registry() { return *reg_; }
  sim::EventQueue& queue() { return q_; }
  cxl::Link& link() { return link_; }

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
    std::uint32_t generated = 0;
  };

  /// FIFO of slots; max_sessions entries suffice (a slot is in one queue).
  class SlotRing {
   public:
    explicit SlotRing(std::size_t cap)
        : buf_(std::bit_ceil(cap)), mask_(buf_.size() - 1) {}
    bool empty() const { return n_ == 0; }
    std::size_t size() const { return n_; }
    Slot operator[](std::size_t i) const { return buf_[(head_ + i) & mask_]; }
    void push_back(Slot s) { buf_[(head_ + n_++) & mask_] = s; }
    void pop_front(std::size_t k) {
      head_ = (head_ + k) & mask_;
      n_ -= k;
    }

   private:
    std::vector<Slot> buf_;
    std::size_t mask_, head_ = 0, n_ = 0;
  };

  void drain_arrivals() TECO_REQUIRES(shard_);
  void prefill_iteration() TECO_REQUIRES(shard_);
  void decode_iteration() TECO_REQUIRES(shard_);
  void complete(Slot s, sim::Time t) TECO_REQUIRES(shard_);
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
  ServeReport report_ TECO_SHARD_AFFINE(shard_);  ///< kv_ adds its fields.
  KvCacheManager kv_;
  ArrivalProcess arrivals_;

  std::vector<Session> sessions_ TECO_SHARD_AFFINE(shard_);  ///< By slot.
  std::vector<Slot> free_ TECO_SHARD_AFFINE(shard_);
  SlotRing waiting_ TECO_SHARD_AFFINE(shard_);
  SlotRing running_ TECO_SHARD_AFFINE(shard_);
  std::vector<Slot> batch_ TECO_SHARD_AFFINE(shard_);  ///< Decode batch.
  std::optional<Request> pending_ TECO_SHARD_AFFINE(shard_);
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

}  // namespace teco::serve
