// fabric::FabricNode + fabric::PoolAllReduce — the in-pool collective.
//
// Each FabricNode owns one coherent domain: its private cxl::Link (attached
// to a switch port), a giant cache mapping its pooled windows, a pool-side
// CPU cache, its device backing store, a HomeAgent whose CPU/home side IS
// the shared pool, and (tests/benches) a strict ProtocolChecker. The pool
// plays the CPU role of every node's domain, so node->pool traffic is the
// device->CPU update push and pool->node traffic is the CPU->device push —
// the paper's protocol, unchanged, becomes the collective's transport.
//
// PoolAllReduce drives one data-parallel gradient all-reduce step per
// run_step() call on a persistent sim::EventQueue: N concurrent per-node
// push streams contend at the switch's to_pool port, the pool reduces
// (ReduceUnit under kDbaMerge; a reducer node's demand-read staging under
// kPoolStaging), and results broadcast down through the from_pool port.
// kPerLink charges offload::per_link_reduce() — the bench_multi_device arm
// — for an apples-to-apples no-pool baseline. After every phase the fabric
// invariants run: shared-port packet conservation against the node links'
// channel stats and the ReduceUnit merge watchdog; violations throw.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "check/protocol_checker.hpp"
#include "coherence/home_agent.hpp"
#include "core/annotations.hpp"
#include "fabric/fabric.hpp"
#include "fabric/pool.hpp"
#include "fabric/switch.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"

namespace teco::fabric {

class FabricNode {
 public:
  /// `staging` is non-empty only on the kPoolStaging reducer: other nodes'
  /// contribution windows, mapped demand-readable (and demoted — another
  /// node produces them, so there is no clear producer/consumer).
  FabricNode(std::uint32_t id, const FabricConfig& cfg, CxlSwitch& sw,
             PooledMemory& pool, mem::Region contribution, mem::Region result,
             std::span<const mem::Region> staging, obs::MetricsRegistry* reg);
  ~FabricNode();

  FabricNode(const FabricNode&) = delete;
  FabricNode& operator=(const FabricNode&) = delete;

  /// Load this node's gradient shard into device memory (no traffic).
  void set_gradients(std::span<const float> values);

  /// Update-push one contribution line into the pool (device->CPU, full
  /// precision — gradients never trim).
  std::optional<cxl::Delivery> push_contribution(sim::Time now,
                                                 std::uint64_t line);

  /// Push one reduced-result line pool->node (CPU->device; DBA-trimmed when
  /// the register is programmed — the bandwidth-multiplier path).
  std::optional<cxl::Delivery> broadcast_result(sim::Time now,
                                                std::uint64_t line);

  /// Push one locally reduced result line node->pool (the kPoolStaging
  /// reducer's writeback).
  std::optional<cxl::Delivery> push_result(sim::Time now, std::uint64_t line);

  /// Demand-read a staged line from the pool (kPoolStaging reducer).
  coherence::HomeAgent::Access pull_line(sim::Time now, mem::Addr addr);

  /// Pool-side write to a staged line: under the demoted (invalidation)
  /// protocol this back-invalidates this node's cached copy — the CXL 3.x
  /// BI round trip the pool issues after another node rewrites the window.
  void invalidate_staged(sim::Time now, mem::Addr addr);

  sim::Time fence(sim::Time now) { return agent_->cxl_fence(now); }
  void program_dba(sim::Time now, dba::DbaRegister reg) {
    agent_->set_dba(now, reg);
  }

  float device_f32(mem::Addr addr) const;
  /// Floats at `addr` in this node's device memory, one line per lookup.
  void device_read_f32s(mem::Addr addr, std::span<float> out) const;
  void device_write_f32s(mem::Addr addr, std::span<const float> values);
  /// This node's view of the reduced result (device copy of the window).
  std::vector<float> result_values() const;

  std::uint64_t lines() const { return contribution_.lines(); }
  const mem::Region& contribution() const { return contribution_; }
  const mem::Region& result() const { return result_; }
  coherence::HomeAgent& agent() { return *agent_; }
  const cxl::Link& link() const { return link_; }
  const check::ProtocolChecker* checker() const { return checker_.get(); }

 private:
  std::uint32_t id_;
  mem::Region contribution_;
  mem::Region result_;
  cxl::Link link_;
  coherence::GiantCache gc_;
  mem::Cache pool_cache_;
  mem::BackingStore device_mem_;
  std::unique_ptr<coherence::HomeAgent> agent_;
  std::unique_ptr<check::ProtocolChecker> checker_;  ///< Last: detaches first.
};

/// One completed all-reduce step's timeline and shared-port accounting.
struct AllReduceReport {
  std::uint64_t step = 0;
  sim::Time started = 0.0;
  sim::Time push_done = 0.0;       ///< All contributions fenced into the pool.
  sim::Time reduce_done = 0.0;     ///< Reduction complete (strategy-specific).
  sim::Time broadcast_done = 0.0;  ///< Results fenced on every node.
  sim::Time wall() const { return broadcast_done - started; }
  std::uint64_t to_pool_bytes = 0;    ///< Shared-port bytes this step.
  std::uint64_t from_pool_bytes = 0;
  sim::Time port_queue_time = 0.0;    ///< Switch queueing added this step.

  /// Tail of the step's causal chain and the critical-path attribution over
  /// [started, broadcast_done] (populated when set_causal() wired a graph):
  /// push occupancy lands in cxl_up, switch queueing in switch_queue, the
  /// reduction in pool_reduce and the result fan-out in cxl_down.
  std::uint32_t causal_tail = sim::kNoCausalNode;
  obs::causal::Attribution attribution;
};

class PoolAllReduce {
 public:
  explicit PoolAllReduce(const FabricConfig& cfg);

  PoolAllReduce(const PoolAllReduce&) = delete;
  PoolAllReduce& operator=(const PoolAllReduce&) = delete;

  std::uint64_t shard_floats() const { return cfg_.shard_bytes / 4; }
  void set_node_gradients(std::uint32_t node, std::span<const float> values);

  /// Run one all-reduce step to completion on the internal event queue.
  /// Simulated time is cumulative across calls (steady-state steps see the
  /// DBA register already programmed).
  AllReduceReport run_step();

  std::vector<float> node_result(std::uint32_t node) const;

  const FabricConfig& config() const { return cfg_; }
  CxlSwitch& fabric_switch() { return switch_; }
  PooledMemory& pool() { return pool_; }
  ReduceUnit& reduce_unit() { return *reduce_; }
  FabricNode& node(std::uint32_t i) { return *nodes_.at(i); }
  obs::MetricsRegistry& registry() { return metrics_; }
  sim::Time now() const { return eq_.now(); }
  std::uint64_t steps_run() const {
    shard_.assert_held();
    return step_;
  }

  /// Wire the causal DAG (must outlive the collective; nullptr = off): the
  /// graph becomes the event queue's provenance sink — every self-paced
  /// line-stream event is tagged with its phase's category — and each
  /// run_step() appends a phase chain whose critical-path attribution over
  /// the step interval lands in AllReduceReport::attribution.
  void set_causal(obs::causal::CausalGraph* g) {
    shard_.assert_held();
    causal_ = g;
    eq_.set_causal_sink(g);
  }

 private:
  using StreamOp = std::optional<cxl::Delivery> (PoolAllReduce::*)(
      std::uint32_t node, std::uint64_t line, sim::Time now);

  void run_dba_merge(AllReduceReport& r) TECO_REQUIRES(shard_);
  void run_pool_staging(AllReduceReport& r) TECO_REQUIRES(shard_);
  void run_per_link(AllReduceReport& r) TECO_REQUIRES(shard_);

  /// Run `op(node, line)` as a self-paced line stream per node, all nodes
  /// concurrently on the event queue (this is where port contention
  /// happens); drains the queue before returning. `tag` is the causal
  /// category every stream event of this phase is stamped with.
  void pump_streams(sim::Time start, const std::vector<std::uint32_t>& nodes,
                    StreamOp op, std::uint8_t tag) TECO_REQUIRES(shard_);
  /// One step of a stream: run `op(n, line)`, then schedule line + 1 of
  /// `lines` once the link admits this one.
  void pump_line(StreamOp op, std::uint64_t lines, std::uint8_t tag,
                 std::uint32_t n, std::uint64_t line) TECO_REQUIRES(shard_);

  std::optional<cxl::Delivery> op_push(std::uint32_t node, std::uint64_t line,
                                       sim::Time now) TECO_REQUIRES(shard_);
  std::optional<cxl::Delivery> op_broadcast(std::uint32_t node,
                                            std::uint64_t line, sim::Time now)
      TECO_REQUIRES(shard_);

  /// Fence every node; returns the barrier time and advances the queue.
  sim::Time fence_all() TECO_REQUIRES(shard_);

  /// The fabric-level invariants (shared-port packet conservation, merge
  /// watchdog); throws std::runtime_error on violation.
  void check_fabric(const char* phase) TECO_REQUIRES(shard_);

  FabricConfig cfg_;
  obs::MetricsRegistry metrics_;  ///< First member: outlives every recorder.
  core::ShardCapability shard_;
  sim::EventQueue eq_;
  /// The all-reduce owns its queue: gather/fold/commit pump lambdas and
  /// switch deliveries all run on this shard.
  TECO_QUEUE_CONTEXT(eq_);
  PooledMemory pool_;
  CxlSwitch switch_;
  std::vector<mem::Region> contributions_ TECO_SHARD_AFFINE(shard_);
  mem::Region result_ TECO_SHARD_AFFINE(shard_);
  std::unique_ptr<ReduceUnit> reduce_ TECO_SHARD_AFFINE(shard_);
  std::vector<std::unique_ptr<FabricNode>> nodes_ TECO_SHARD_AFFINE(shard_);
  std::uint64_t step_ TECO_SHARD_AFFINE(shard_) = 0;
  obs::causal::CausalGraph* causal_ TECO_SHARD_AFFINE(shard_) = nullptr;
  std::uint32_t causal_tail_ TECO_SHARD_AFFINE(shard_) = sim::kNoCausalNode;
  obs::Counter* m_steps_ = nullptr;
  obs::Counter* m_up_bytes_ = nullptr;
  obs::Counter* m_down_bytes_ = nullptr;
};

}  // namespace teco::fabric
