#include "fabric/allreduce.hpp"

#include <stdexcept>
#include <utility>

#include "dba/aggregator.hpp"
#include "offload/multi_device.hpp"

namespace teco::fabric {

// --- FabricNode ------------------------------------------------------------

FabricNode::FabricNode(std::uint32_t id, const FabricConfig& cfg,
                       CxlSwitch& sw, PooledMemory& pool,
                       mem::Region contribution, mem::Region result,
                       std::span<const mem::Region> staging,
                       obs::MetricsRegistry* reg)
    : id_(id),
      contribution_(contribution),
      result_(result),
      link_(cfg.node_phy),
      gc_(cfg.pool_bytes),
      pool_cache_(cfg.pool_cache) {
  sw.attach(id, link_);
  gc_.map_region("grad#" + std::to_string(id), contribution_.base,
                 contribution_.bytes, coherence::MesiState::kExclusive,
                 /*dba_eligible=*/false);
  gc_.map_region("reduced", result_.base, result_.bytes,
                 coherence::MesiState::kExclusive, /*dba_eligible=*/true);
  for (std::size_t i = 0; i < staging.size(); ++i) {
    gc_.map_region("stage#" + std::to_string(i), staging[i].base,
                   staging[i].bytes, coherence::MesiState::kInvalid,
                   /*dba_eligible=*/false);
  }
  coherence::HomeAgent::Options o;
  o.protocol = coherence::Protocol::kUpdate;
  o.cpu_mem = &pool.store();
  o.device_mem = &device_mem_;
  agent_ = std::make_unique<coherence::HomeAgent>(link_, gc_, pool_cache_, o);
  // Staged windows are produced by another node and demand-read here: no
  // clear producer/consumer, so they run stock invalidation MESI.
  for (const mem::Region& s : staging) agent_->demote_region(0.0, s.base);
  if (cfg.check) {
    check::ProtocolChecker::Options co;
    co.level = check::CheckLevel::kStrict;
    co.cpu_mem = &pool.store();
    co.device_mem = &device_mem_;
    checker_ = std::make_unique<check::ProtocolChecker>(*agent_, co);
  }
  if (reg != nullptr) agent_->set_metrics(reg);
}

FabricNode::~FabricNode() {
  // Unregister the link's registry flusher before the link dies.
  agent_->set_metrics(nullptr);
}

void FabricNode::set_gradients(std::span<const float> values) {
  if (values.size() * 4 != contribution_.bytes) {
    throw std::invalid_argument("FabricNode::set_gradients: shard size "
                                "mismatch");
  }
  device_mem_.write_f32s(contribution_.base, values);
}

std::optional<cxl::Delivery> FabricNode::push_contribution(
    sim::Time now, std::uint64_t line) {
  return agent_->device_write_line(now,
                                   contribution_.base + line * mem::kLineBytes);
}

std::optional<cxl::Delivery> FabricNode::broadcast_result(sim::Time now,
                                                          std::uint64_t line) {
  return agent_->cpu_write_line(now, result_.base + line * mem::kLineBytes);
}

std::optional<cxl::Delivery> FabricNode::push_result(sim::Time now,
                                                     std::uint64_t line) {
  return agent_->device_write_line(now, result_.base + line * mem::kLineBytes);
}

coherence::HomeAgent::Access FabricNode::pull_line(sim::Time now,
                                                   mem::Addr addr) {
  return agent_->device_read_line(now, addr);
}

void FabricNode::invalidate_staged(sim::Time now, mem::Addr addr) {
  agent_->cpu_write_line(now, addr);
}

float FabricNode::device_f32(mem::Addr addr) const {
  return device_mem_.read_f32(addr);
}

void FabricNode::device_read_f32s(mem::Addr addr, std::span<float> out) const {
  device_mem_.read_f32s(addr, out);
}

void FabricNode::device_write_f32s(mem::Addr addr,
                                   std::span<const float> values) {
  device_mem_.write_f32s(addr, values);
}

std::vector<float> FabricNode::result_values() const {
  std::vector<float> out(result_.bytes / 4);
  device_mem_.read_f32s(result_.base, out);
  return out;
}

// --- PoolAllReduce ---------------------------------------------------------

PoolAllReduce::PoolAllReduce(const FabricConfig& cfg)
    : cfg_(cfg), pool_(cfg.pool_bytes, cfg.pool_base), switch_(cfg) {
  if (cfg_.nodes == 0) {
    throw std::invalid_argument("fabric: nodes must be >= 1");
  }
  if (cfg_.shard_bytes == 0 || cfg_.shard_bytes % mem::kLineBytes != 0) {
    throw std::invalid_argument(
        "fabric: shard_bytes must be a positive multiple of 64");
  }
  pool_.set_metrics(&metrics_);
  switch_.set_metrics(&metrics_);
  for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
    auto c = pool_.try_carve("grad#" + std::to_string(n), n, cfg_.shard_bytes);
    if (!c.has_value()) {
      throw std::runtime_error(
          "fabric: pool admission rejected a gradient carve-out — "
          "fabric_pool_bytes must cover (nodes + 1) * shard_bytes");
    }
    contributions_.push_back(*c);
  }
  auto r = pool_.try_carve("reduced", kSharedOwner, cfg_.shard_bytes);
  if (!r.has_value()) {
    throw std::runtime_error(
        "fabric: pool admission rejected the result carve-out — "
        "fabric_pool_bytes must cover (nodes + 1) * shard_bytes");
  }
  result_ = *r;
  reduce_ = std::make_unique<ReduceUnit>(pool_, contributions_, result_);
  reduce_->set_metrics(&metrics_);

  std::vector<mem::Region> staging;
  if (cfg_.reduce == ReduceStrategy::kPoolStaging) {
    for (std::uint32_t m = 1; m < cfg_.nodes; ++m) {
      staging.push_back(contributions_[m]);
    }
  }
  for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
    nodes_.push_back(std::make_unique<FabricNode>(
        n, cfg_, switch_, pool_, contributions_[n], result_,
        n == 0 ? std::span<const mem::Region>(staging)
               : std::span<const mem::Region>(),
        &metrics_));
  }
  m_steps_ = &metrics_.counter("fabric.allreduce.steps");
  m_up_bytes_ = &metrics_.counter("fabric.allreduce.up_bytes");
  m_down_bytes_ = &metrics_.counter("fabric.allreduce.down_bytes");
}

void PoolAllReduce::set_node_gradients(std::uint32_t node,
                                       std::span<const float> values) {
  shard_.assert_held();
  nodes_.at(node)->set_gradients(values);
}

std::vector<float> PoolAllReduce::node_result(std::uint32_t node) const {
  shard_.assert_held();
  return nodes_.at(node)->result_values();
}

AllReduceReport PoolAllReduce::run_step() {
  shard_.assert_held();
  AllReduceReport r;
  r.step = step_;
  r.started = eq_.now();
  const PortStats tp0 = switch_.to_pool();
  const PortStats fp0 = switch_.from_pool();

  switch (cfg_.reduce) {
    case ReduceStrategy::kDbaMerge:
      run_dba_merge(r);
      break;
    case ReduceStrategy::kPoolStaging:
      run_pool_staging(r);
      break;
    case ReduceStrategy::kPerLink:
      run_per_link(r);
      break;
  }

  const PortStats tp1 = switch_.to_pool();
  const PortStats fp1 = switch_.from_pool();
  r.to_pool_bytes = tp1.wire_bytes - tp0.wire_bytes;
  r.from_pool_bytes = fp1.wire_bytes - fp0.wire_bytes;
  r.port_queue_time =
      (tp1.queue_time - tp0.queue_time) + (fp1.queue_time - fp0.queue_time);
  if (causal_ != nullptr) {
    // Phase chain over [started, broadcast_done]: the tail of each phase
    // window is re-attributed to switch queueing, the head to link
    // occupancy / the reduction. Port queue_time sums every packet's wait
    // across N concurrent streams, so the per-stream average — not the
    // aggregate — approximates the critical stream's queueing; it is
    // clamped to the phase window so the chain stays a partition.
    using obs::causal::Category;
    const double streams = static_cast<double>(cfg_.nodes);
    const sim::Time q_up =
        std::min((tp1.queue_time - tp0.queue_time) / streams,
                 r.push_done - r.started);
    const sim::Time q_down =
        std::min((fp1.queue_time - fp0.queue_time) / streams,
                 r.broadcast_done - r.reduce_done);
    std::uint32_t tail = causal_tail_;
    const auto note = [&](Category cat, sim::Time from, sim::Time to) {
      if (to > from) tail = causal_->add(cat, to, tail, from);
    };
    note(Category::kCxlUp, r.started, r.push_done - q_up);
    note(Category::kSwitchQueue, r.push_done - q_up, r.push_done);
    note(Category::kPoolReduce, r.push_done, r.reduce_done);
    note(Category::kCxlDown, r.reduce_done, r.broadcast_done - q_down);
    note(Category::kSwitchQueue, r.broadcast_done - q_down, r.broadcast_done);
    causal_tail_ = tail;
    r.causal_tail = tail;
    r.attribution =
        obs::causal::critical_path(*causal_, r.started, r.broadcast_done, tail);
  }
  m_steps_->add();
  m_up_bytes_->add(static_cast<double>(r.to_pool_bytes));
  m_down_bytes_->add(static_cast<double>(r.from_pool_bytes));
  ++step_;
  return r;
}

void PoolAllReduce::pump_streams(sim::Time start,
                                 const std::vector<std::uint32_t>& nodes,
                                 StreamOp op, std::uint8_t tag) {
  const std::uint64_t lines = cfg_.shard_bytes / mem::kLineBytes;
  sim::TagScope ts(eq_, tag);
  for (const std::uint32_t n : nodes) {
    eq_.schedule_at(start, [this, op, lines, tag, n] {
      shard_.assert_held();
      pump_line(op, lines, tag, n, 0);
    });
  }
  eq_.run();
}

void PoolAllReduce::pump_line(StreamOp op, std::uint64_t lines,
                              std::uint8_t tag, std::uint32_t n,
                              std::uint64_t line) {
  const sim::Time now = eq_.now();
  const auto d = (this->*op)(n, line, now);
  if (line + 1 >= lines) return;
  // Self-pacing: the next line is ready when the link admits this one,
  // which interleaves the N streams at the shared port naturally.
  sim::Time next = now;
  if (d.has_value() && d->accepted > next) next = d->accepted;
  sim::TagScope ts(eq_, tag);
  eq_.schedule_at(next, [this, op, lines, tag, n, line] {
    shard_.assert_held();
    pump_line(op, lines, tag, n, line + 1);
  });
}

std::optional<cxl::Delivery> PoolAllReduce::op_push(std::uint32_t node,
                                                    std::uint64_t line,
                                                    sim::Time now) {
  return nodes_[node]->push_contribution(now, line);
}

std::optional<cxl::Delivery> PoolAllReduce::op_broadcast(std::uint32_t node,
                                                         std::uint64_t line,
                                                         sim::Time now) {
  return nodes_[node]->broadcast_result(now, line);
}

sim::Time PoolAllReduce::fence_all() {
  sim::Time t = eq_.now();
  for (auto& n : nodes_) {
    const sim::Time f = n->fence(eq_.now());
    if (f > t) t = f;
  }
  eq_.run_until(t);
  return t;
}

void PoolAllReduce::run_dba_merge(AllReduceReport& r) {
  const std::uint64_t lines = cfg_.shard_bytes / mem::kLineBytes;
  if (cfg_.dba_enabled && step_ == 1) {
    // Step 0 seeded every node's result window at full precision; from now
    // on broadcasts splice dirty bytes onto that base (Section V).
    const dba::DbaRegister reg(true, cfg_.dirty_bytes);
    for (auto& n : nodes_) n->program_dba(eq_.now(), reg);
  }
  std::vector<std::uint32_t> all(cfg_.nodes);
  for (std::uint32_t i = 0; i < cfg_.nodes; ++i) all[i] = i;

  // Reset the merge watchdog before the push phase rewrites the staged
  // windows it recomputes against.
  reduce_->begin_step();
  pump_streams(eq_.now(), all, &PoolAllReduce::op_push,
               obs::causal::tag(obs::causal::Category::kCxlUp));
  r.push_done = fence_all();
  check_fabric("push");

  // Near-memory reduce: fold every staged shard into the accumulator and
  // commit, one modeled DBA latency per folded/committed line.
  sim::Time t = r.push_done;
  for (std::uint64_t line = 0; line < lines; ++line) {
    for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
      t = reduce_->fold(t, n, line);
    }
    t = reduce_->commit(t, line);
  }
  eq_.run_until(t);
  r.reduce_done = t;
  check_fabric("reduce");

  pump_streams(t, all, &PoolAllReduce::op_broadcast,
               obs::causal::tag(obs::causal::Category::kCxlDown));
  r.broadcast_done = fence_all();
  check_fabric("broadcast");
}

void PoolAllReduce::run_pool_staging(AllReduceReport& r) {
  const std::uint64_t lines = cfg_.shard_bytes / mem::kLineBytes;
  std::vector<std::uint32_t> all(cfg_.nodes);
  for (std::uint32_t i = 0; i < cfg_.nodes; ++i) all[i] = i;

  pump_streams(eq_.now(), all, &PoolAllReduce::op_push,
               obs::causal::tag(obs::causal::Category::kCxlUp));
  r.push_done = fence_all();
  check_fabric("push");

  // The staged windows run stock invalidation MESI, and the reducer's
  // copies from the previous step are stale: the pool back-invalidates
  // them (CXL 3.x BI toward the sharer) before the reducer re-reads.
  sim::Time t = r.push_done;
  FabricNode& red = *nodes_[0];
  for (std::uint32_t m = 1; m < cfg_.nodes; ++m) {
    for (std::uint64_t line = 0; line < lines; ++line) {
      red.invalidate_staged(t, contributions_[m].base + line * mem::kLineBytes);
    }
  }
  t = red.fence(t);
  // The reducer demand-reads every other staged shard through the
  // contended from_pool port — each pull is a full round trip.
  for (std::uint32_t m = 1; m < cfg_.nodes; ++m) {
    for (std::uint64_t line = 0; line < lines; ++line) {
      const auto a =
          red.pull_line(t, contributions_[m].base + line * mem::kLineBytes);
      if (a.ready > t) t = a.ready;
    }
  }
  // Local reduce, charged at the ReduceUnit's per-line rate so wire
  // traffic — not compute — differentiates the strategies.
  t += static_cast<double>(lines) * static_cast<double>(cfg_.nodes) *
       dba::kModeledDbaLatency;
  // Each word sums its nodes in ascending order from 0.0f.
  std::vector<float> sum(shard_floats(), 0.0f);
  std::vector<float> part(sum.size());
  for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
    red.device_read_f32s(contributions_[n].base, part);
    for (std::size_t w = 0; w < sum.size(); ++w) sum[w] += part[w];
  }
  red.device_write_f32s(result_.base, sum);
  // Result writeback up through the to_pool port, then fence.
  for (std::uint64_t line = 0; line < lines; ++line) {
    const auto d = red.push_result(t, line);
    if (d.has_value() && d->accepted > t) t = d->accepted;
  }
  t = red.fence(t);
  eq_.run_until(t);
  r.reduce_done = t;
  check_fabric("reduce");

  // Full-line broadcast to everyone but the reducer.
  std::vector<std::uint32_t> others;
  for (std::uint32_t n = 1; n < cfg_.nodes; ++n) others.push_back(n);
  if (!others.empty()) {
    pump_streams(t, others, &PoolAllReduce::op_broadcast,
                 obs::causal::tag(obs::causal::Category::kCxlDown));
  }
  r.broadcast_done = fence_all();
  check_fabric("broadcast");
}

void PoolAllReduce::run_per_link(AllReduceReport& r) {
  offload::Calibration cal = offload::default_calibration();
  cal.phy = cfg_.node_phy;
  const offload::PerLinkReduce pl = offload::per_link_reduce(
      cfg_.nodes, cfg_.shard_bytes, cal, /*shared_upstream=*/true);
  r.push_done = eq_.now() + pl.ship;
  r.reduce_done = r.push_done + pl.reduce;
  r.broadcast_done = r.reduce_done + pl.broadcast;
  eq_.run_until(r.broadcast_done);
  // The per-link exchange is exact — land the scalar sum in every node's
  // result window so node_result() is comparable across strategies.
  std::vector<float> sum(shard_floats(), 0.0f);
  std::vector<float> part(sum.size());
  for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
    nodes_[n]->device_read_f32s(contributions_[n].base, part);
    for (std::size_t w = 0; w < sum.size(); ++w) sum[w] += part[w];
  }
  for (std::uint32_t n = 0; n < cfg_.nodes; ++n) {
    nodes_[n]->device_write_f32s(result_.base, sum);
  }
}

void PoolAllReduce::check_fabric(const char* phase) {
  if (!cfg_.check) return;
  // Carve-out disjointness: DCD capacity is handed out exclusively.
  const auto& carves = pool_.carveouts();
  for (std::size_t i = 0; i < carves.size(); ++i) {
    for (std::size_t j = i + 1; j < carves.size(); ++j) {
      if (carves[i].region.overlaps(carves[j].region)) {
        throw std::runtime_error(
            std::string("fabric invariant violated (") + phase +
            "): carve-outs '" + carves[i].name + "' and '" + carves[j].name +
            "' overlap");
      }
    }
  }
  // Shared-port packet conservation: every packet a node link carried was
  // forwarded through exactly one shared pool port.
  std::uint64_t up = 0;
  std::uint64_t down = 0;
  for (const auto& n : nodes_) {
    up += n->link().channel(cxl::Direction::kDeviceToCpu).stats().packets;
    down += n->link().channel(cxl::Direction::kCpuToDevice).stats().packets;
  }
  if (up != switch_.to_pool().packets || down != switch_.from_pool().packets) {
    throw std::runtime_error(
        std::string("fabric invariant violated (") + phase +
        "): shared-port packet counts diverge from the node links' totals");
  }
  // The merge watchdog (double-applied folds, lost contribution bytes).
  if (const auto v = reduce_->check_invariants(); v.has_value()) {
    throw std::runtime_error(std::string("fabric invariant violated (") +
                             phase + "): " + *v);
  }
}

}  // namespace teco::fabric
