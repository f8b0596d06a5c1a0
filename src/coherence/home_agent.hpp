// The CXL home agent: the coherence engine of TECO (Sections IV-A2, IV-B).
//
// The home agent lives CPU-side and mediates between two peer caches in one
// coherent domain: the CPU cache hierarchy (modeled by its LLC) and the
// accelerator's giant cache. It implements both protocols:
//
//  * kInvalidation — stock CXL.cache MESI: a write invalidates the remote
//    copy (control flit + ack across the link); the data crosses the link
//    later, on the consumer's demand read, exposing the PCIe transfer on the
//    consumer's critical path.
//  * kUpdate — the TECO extension: on every producer write to a line in the
//    giant-cache domain the home agent grants GO_Flush and the updated line
//    is pushed (FlushData) to the peer immediately, at cache-line grain,
//    overlapping with the producer's ongoing computation. Consumers then hit
//    locally. CPU<->home-agent requests (ReadOwn/GO) are on-package and
//    free; only HA<->device messages ride the CXL link.
//
// When DBA is active, parameter pushes (CPU->device, dba-eligible regions)
// are trimmed by the Aggregator and reconstructed by the Disaggregator.
// If backing stores are provided, real bytes move along with the protocol,
// making DBA merge correctness testable end to end.
#pragma once

#include <cstdint>
#include <optional>

#include "check/observer.hpp"
#include "coherence/giant_cache.hpp"
#include "core/annotations.hpp"
#include "coherence/mesi.hpp"
#include "coherence/snoop_filter.hpp"
#include "cxl/link.hpp"
#include "dba/aggregator.hpp"
#include "dba/disaggregator.hpp"
#include "mem/backing_store.hpp"
#include "mem/cache.hpp"
#include "obs/span.hpp"

namespace teco::coherence {

struct HomeAgentStats {
  std::uint64_t update_pushes = 0;    ///< FlushData transfers (both dirs).
  std::uint64_t dba_trimmed_lines = 0;
  std::uint64_t invalidations = 0;    ///< Invalidate+InvAck round trips.
  std::uint64_t demand_fetches = 0;   ///< On-demand Data transfers.
  std::uint64_t local_device_reads = 0;
  std::uint64_t local_cpu_reads = 0;
  std::uint64_t cpu_flushes = 0;      ///< Lines dropped by cpu_flush_all.
  /// Regions demoted to invalidation MESI after a detected concurrent
  /// update (no clear producer/consumer — Section IV-A2).
  std::uint64_t protocol_fallbacks = 0;
};

class HomeAgent {
 public:
  struct Options {
    Protocol protocol = Protocol::kUpdate;
    dba::DbaRegister dba{};                   ///< Initial DBA register.
    mem::BackingStore* cpu_mem = nullptr;     ///< Optional real CPU memory.
    mem::BackingStore* device_mem = nullptr;  ///< Optional giant-cache bytes.
    /// Protocol events land here as instant spans on lane "home_agent",
    /// named "<Event>@<line>[ <detail>]"; null records nothing.
    obs::TraceBuffer* trace = nullptr;
  };

  /// Result of a consumer-side load.
  struct Access {
    sim::Time ready = 0.0;    ///< When the data is usable.
    bool crossed_link = false;  ///< True for demand fetches.
  };

  HomeAgent(cxl::Link& link, GiantCache& giant_cache, mem::Cache& cpu_cache,
            Options opts);

  // --- CPU side (produces parameters, consumes gradients) ---

  /// CPU stores a full line (a vectorized optimizer update). In update mode
  /// this triggers the GO_Flush push; returns its link delivery, or nullopt
  /// if no data crossed the link (invalidation mode, or unmapped line).
  std::optional<cxl::Delivery> cpu_write_line(sim::Time now, mem::Addr line);

  Access cpu_read_line(sim::Time now, mem::Addr line);

  /// Once-per-iteration CPU cache flush (Fig. 5): every giant-domain line in
  /// S drops to I on the CPU and the device copy returns to E. Returns the
  /// number of lines transitioned.
  std::uint64_t cpu_flush_all(sim::Time now);

  // --- Device side (produces gradients, consumes parameters) ---

  Access device_read_line(sim::Time now, mem::Addr line);

  std::optional<cxl::Delivery> device_write_line(sim::Time now,
                                                 mem::Addr line);

  // --- Control ---

  /// Demote the region containing `addr` to invalidation MESI. Called
  /// automatically when both peers update the same line (no clear
  /// producer/consumer); may also be invoked explicitly. The region stays
  /// demoted and its lines are tracked in the snoop filter from then on.
  void demote_region(sim::Time now, mem::Addr addr);

  /// The protocol governing `addr` right now: the agent's protocol, unless
  /// the region was demoted.
  Protocol effective_protocol(mem::Addr addr) const;

  /// Program the DBA register; mirrors it to the device CXL module with a
  /// kDbaConfig message (Section V-C).
  void set_dba(sim::Time now, dba::DbaRegister reg);
  dba::DbaRegister dba() const {
    shard_.assert_held();
    return aggregator_.reg();
  }

  /// CXLFENCE(): drain all in-flight coherence traffic.
  sim::Time cxl_fence(sim::Time now) const { return link_.fence_all(now); }

  const HomeAgentStats& stats() const {
    shard_.assert_held();
    return stats_;
  }
  const SnoopFilter& snoop_filter() const {
    shard_.assert_held();
    return snoop_;
  }
  /// Mutable directory access for fault injection and the model checker's
  /// mutation hooks. Pokes through this still notify any attached observer,
  /// so the strict checker judges them like any other transition.
  SnoopFilter& snoop_filter() {
    shard_.assert_held();
    return snoop_;
  }
  const dba::Aggregator& aggregator() const {
    shard_.assert_held();
    return aggregator_;
  }
  const dba::Disaggregator& disaggregator() const {
    shard_.assert_held();
    return disaggregator_;
  }
  const GiantCache& giant_cache() const { return gc_; }
  const mem::Cache& cpu_cache() const { return cpu_cache_; }
  const cxl::Link& link() const { return link_; }
  Protocol protocol() const { return protocol_; }

  /// Attach/detach the coherence invariant checker. Wires the observer into
  /// every component of the domain (giant cache, CPU cache, snoop filter,
  /// link, DBA units) in one call; nullptr detaches everywhere.
  void set_observer(check::Observer* obs);

  /// Attach/detach a telemetry registry. Wires the link's cxl.*/coherence.*
  /// counters and resolves the agent's own dba.* handles (the trim decision
  /// is only visible here); nullptr detaches everywhere.
  void set_metrics(obs::MetricsRegistry* reg);

 private:
  /// CPU-line state as the coherence layer sees it (I if not resident).
  MesiState cpu_state(mem::Addr line) const;
  void set_cpu_state(mem::Addr line, MesiState s, bool dirty);

  // Operation bodies; the public entry points wrap them in the observer's
  // op scope so whole-line invariants are judged once the transition
  // sequence has quiesced.
  std::optional<cxl::Delivery> cpu_write_line_impl(sim::Time now,
                                                   mem::Addr line,
                                                   GiantCacheRegion& region)
      TECO_REQUIRES(shard_);
  Access cpu_read_line_impl(sim::Time now, mem::Addr line)
      TECO_REQUIRES(shard_);
  Access device_read_line_impl(sim::Time now, mem::Addr line)
      TECO_REQUIRES(shard_);
  std::optional<cxl::Delivery> device_write_line_impl(sim::Time now,
                                                      mem::Addr line,
                                                      GiantCacheRegion& region)
      TECO_REQUIRES(shard_);
  std::uint64_t cpu_flush_all_impl(sim::Time now) TECO_REQUIRES(shard_);

  cxl::Delivery push_line_to_device(sim::Time now, mem::Addr line,
                                    const GiantCacheRegion& region)
      TECO_REQUIRES(shard_);
  cxl::Delivery push_line_to_cpu(sim::Time now, mem::Addr line)
      TECO_REQUIRES(shard_);

  void trace(sim::Time now, std::string_view event, mem::Addr line,
             std::string detail = {});

  cxl::Link& link_;
  GiantCache& gc_;
  mem::Cache& cpu_cache_;
  Protocol protocol_;
  mem::BackingStore* cpu_mem_;
  mem::BackingStore* device_mem_;
  obs::TraceBuffer* trace_;
  check::Observer* observer_ = nullptr;
  // The home agent is the unit of sharding (ROADMAP: N home-agent shards
  // partitioned by address). Its directory, DBA units and counters are
  // TECO_SHARD_AFFINE: the sharded engine may only reach them via events
  // delivered to this shard's queue. docs/STATIC_ANALYSIS.md has the guide.
  core::ShardCapability shard_;
  SnoopFilter snoop_ TECO_SHARD_AFFINE(shard_);
  dba::Aggregator aggregator_ TECO_SHARD_AFFINE(shard_);
  dba::Disaggregator disaggregator_ TECO_SHARD_AFFINE(shard_);
  HomeAgentStats stats_ TECO_SHARD_AFFINE(shard_);
  obs::Counter* m_dba_lines_ = nullptr;      ///< dba.lines_aggregated
  obs::Counter* m_dba_saved_ = nullptr;      ///< dba.bytes_saved
  obs::Counter* m_dba_fallback_ = nullptr;   ///< dba.fallback_full_lines
};

}  // namespace teco::coherence
