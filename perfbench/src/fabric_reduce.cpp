// fabric_reduce: steady-state in-pool all-reduce (fabric::PoolAllReduce).
//
// dba_merge over 4 nodes sharing a contended 8 GB/s pool port, strict
// per-node protocol checkers on. Coherence is the reduce transport here:
// nodes update-push gradient lines into the pool, the ReduceUnit merges
// them there, and DBA-trimmed results broadcast back. One warm-up step,
// which seeds every node's result window at full precision, is part of
// set-up. The shard is 64 KiB plus 0-7 lines drawn from the seed, so the
// modeled times differ between seeds the way a model-size input would.
#include "dba/disaggregator.hpp"
#include "fabric/allreduce.hpp"
#include "obs/causal.hpp"
#include "obs/json.hpp"
#include "perfbench.hpp"
#include "recorders.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace {

using namespace teco;

constexpr std::uint32_t kNodes = 4;
constexpr std::size_t kSteps = 40;  ///< Timed steps per pass.
constexpr double kPortGbps = 8.0;
constexpr std::uint8_t kDirtyBytes = 2;

fabric::FabricConfig reduce_config(std::uint32_t nodes,
                                   std::uint64_t shard_bytes) {
  fabric::FabricConfig cfg;
  cfg.nodes = nodes;
  cfg.reduce = fabric::ReduceStrategy::kDbaMerge;
  cfg.shard_bytes = shard_bytes;
  cfg.port_gbps = kPortGbps;
  cfg.dirty_bytes = kDirtyBytes;
  cfg.check = true;
  return cfg;
}

/// The scalar reference: fold nodes 0..N-1 in order, per float, the order
/// every fabric strategy reduces in.
std::vector<float> scalar_sum(const std::vector<std::vector<float>>& shards) {
  std::vector<float> out(shards.front().size(), 0.0f);
  for (const auto& s : shards) {
    for (std::size_t w = 0; w < out.size(); ++w) out[w] += s[w];
  }
  return out;
}

}  // namespace

PassResult run_fabric_reduce(std::uint64_t seed, bool traced) {
  PassResult out;
  const auto setup0 = Clock::now();
  sim::Rng shape(sub_seed(seed, 20));
  const std::uint64_t shard_bytes = (1024 + shape.next_below(8)) * 64;
  const std::size_t floats = shard_bytes / 4;
  // grads[step][node]: step 0 is the warm-up.
  std::vector<std::vector<std::vector<float>>> grads(kSteps + 1);
  Digest digest;
  digest.add(&shard_bytes, sizeof shard_bytes);
  for (std::size_t s = 0; s <= kSteps; ++s) {
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      sim::Rng rng(sub_seed(seed, 1000 + s * kNodes + n));
      std::vector<float> g(floats);
      for (float& v : g) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      digest.add_values(g);
      grads[s].push_back(std::move(g));
    }
  }
  out.input_digest = digest.value();

  // One fan-out per node in front of its strict checker, so a traced pass
  // listens to the domain without replacing the checker. Declared before
  // the collective: the taps must outlive its nodes.
  std::vector<check::ObserverMux> taps(kNodes);
  DomainRecorder domain;
  obs::causal::CausalGraph graph;
  fabric::PoolAllReduce ar(reduce_config(kNodes, shard_bytes));
  if (traced) {
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      fabric::FabricNode& node = ar.node(n);
      // The checker is a non-const object the node owns; the accessor is
      // const only because callers normally just read its stats.
      taps[n].add(const_cast<check::ProtocolChecker*>(node.checker()));
      taps[n].add(&domain);
      node.agent().set_observer(&taps[n]);
    }
    ar.set_causal(&graph);
  }

  std::vector<std::vector<float>> prev(kNodes);
  const auto check_results = [&](std::size_t step) {
    const std::vector<float> sum = scalar_sum(grads[step]);
    bool ok = true;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      std::vector<float> got = ar.node_result(n);
      for (std::size_t w = 0; w < floats && ok; ++w) {
        const float want = step == 0 ? sum[w]
                                     : dba::splice_f32(prev[n][w], sum[w],
                                                       kDirtyBytes);
        ok = got[w] == want;
      }
      prev[n] = std::move(got);
    }
    return ok;
  };

  try {
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      ar.set_node_gradients(n, grads[0][n]);
    }
    ar.run_step();
    if (!check_results(0)) {
      out.errors.push_back("fabric_reduce: warm-up result differs");
    }
  } catch (const std::exception& e) {
    out.errors.push_back(std::string("fabric_reduce: ") + e.what());
  }
  out.setup_s = seconds_since(setup0);
  out.units = kSteps;
  if (!out.errors.empty()) {
    out.failed = kSteps;
    return out;
  }

  const auto reg0 = registry_values(ar.registry());
  const std::uint64_t events0 = domain.events();
  const std::size_t nodes0 = graph.size();
  std::vector<coherence::HomeAgentStats> agent0;
  std::vector<cxl::ChannelStats> link0[2];
  const auto channel = [&](std::uint32_t n, int d) -> const cxl::Channel& {
    return ar.node(n).link().channel(d == 0 ? cxl::Direction::kCpuToDevice
                                            : cxl::Direction::kDeviceToCpu);
  };
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    agent0.push_back(ar.node(n).agent().stats());
    for (int d = 0; d < 2; ++d) link0[d].push_back(channel(n, d).stats());
  }

  double wall = 0.0, push = 0.0, reduce = 0.0, bcast = 0.0, queue = 0.0;
  double port_bytes = 0.0, set_grads_s = 0.0, run_step_s = 0.0;
  std::vector<double> cats(obs::causal::kNumCategories, 0.0);
  out.unit_s.reserve(kSteps);
  try {
    for (std::size_t s = 1; s <= kSteps; ++s) {
      const auto t0 = Clock::now();
      for (std::uint32_t n = 0; n < kNodes; ++n) {
        ar.set_node_gradients(n, grads[s][n]);
      }
      const auto t1 = Clock::now();
      const fabric::AllReduceReport r = ar.run_step();
      const auto t2 = Clock::now();
      const double unit = std::chrono::duration<double>(t2 - t0).count();
      set_grads_s += std::chrono::duration<double>(t1 - t0).count();
      run_step_s += std::chrono::duration<double>(t2 - t1).count();
      out.unit_s.push_back(unit);
      out.run_s += unit;
      if (!check_results(s)) ++out.failed;
      wall += r.wall();
      push += r.push_done - r.started;
      reduce += r.reduce_done - r.push_done;
      bcast += r.broadcast_done - r.reduce_done;
      queue += r.port_queue_time;
      port_bytes += static_cast<double>(r.to_pool_bytes + r.from_pool_bytes);
      for (std::size_t i = 0; i < cats.size(); ++i) {
        cats[i] += r.attribution.by_category[i];
      }
    }
  } catch (const std::exception& e) {
    out.errors.push_back(std::string("fabric_reduce: ") + e.what());
    out.failed += kSteps - out.unit_s.size();
    return out;
  }

  const double steps = static_cast<double>(kSteps);
  out.modeled["sim_allreduce_us"] = {wall * 1e6 / steps, "us"};
  out.modeled["sim_port_mib_per_step"] = {port_bytes / kMiB / steps, "MiB"};
  out.fingerprint =
      metrics_fingerprint(out.modeled) + registry_fingerprint(ar.registry());
  if (!traced) return out;

  // --- Per-layer metrics -----------------------------------------------------
  auto& L = out.layers;
  const auto reg1 = registry_values(ar.registry());
  const auto delta = [&](const std::string& name) {
    return value_or_zero(reg1, name) - value_or_zero(reg0, name);
  };
  L["fabric.push_us"] = {push * 1e6 / steps, "us"};
  L["fabric.reduce_us"] = {reduce * 1e6 / steps, "us"};
  L["fabric.broadcast_us"] = {bcast * 1e6 / steps, "us"};
  L["fabric.port_queue_us"] = {queue * 1e6 / steps, "us"};
  L["fabric.port_mib"] = {port_bytes / kMiB / steps, "MiB"};
  L["fabric.set_gradients_us"] = {set_grads_s * 1e6 / steps, "us", true};
  L["fabric.run_step_us"] = {run_step_s * 1e6 / steps, "us", true};

  double pushes = 0.0, demand = 0.0, snoops = 0.0, trimmed = 0.0,
         violations = 0.0, hits = 0.0, lookups = 0.0;
  double packets[2] = {0, 0}, bytes[2] = {0, 0}, busy[2] = {0, 0},
         stall[2] = {0, 0};
  for (std::uint32_t n = 0; n < kNodes; ++n) {
    coherence::HomeAgent& agent = ar.node(n).agent();
    pushes += static_cast<double>(agent.stats().update_pushes -
                                  agent0[n].update_pushes);
    demand += static_cast<double>(agent.stats().demand_fetches -
                                  agent0[n].demand_fetches);
    snoops += static_cast<double>(agent.stats().invalidations -
                                  agent0[n].invalidations);
    trimmed += static_cast<double>(agent.stats().dba_trimmed_lines -
                                   agent0[n].dba_trimmed_lines);
    violations += static_cast<double>(
        ar.node(n).checker()->stats().total_violations());
    hits += static_cast<double>(agent.cpu_cache().stats().hits);
    lookups += static_cast<double>(agent.cpu_cache().stats().hits +
                                   agent.cpu_cache().stats().misses);
    for (int d = 0; d < 2; ++d) {
      const auto& s = channel(n, d).stats();
      packets[d] += static_cast<double>(s.packets - link0[d][n].packets);
      bytes[d] += static_cast<double>(s.wire_bytes - link0[d][n].wire_bytes);
      busy[d] += s.busy_time - link0[d][n].busy_time;
      stall[d] += s.producer_stall - link0[d][n].producer_stall;
    }
  }
  L["coherence.update_pushes"] = {pushes / steps, "count"};
  L["coherence.demand_fetches"] = {demand / steps, "count"};
  L["coherence.snoops"] = {snoops / steps, "count"};
  L["coherence.m2s.msgs"] = {delta("coherence.m2s.msgs") / steps, "count"};
  L["coherence.s2m.msgs"] = {delta("coherence.s2m.msgs") / steps, "count"};
  L["check.events"] = {static_cast<double>(domain.events() - events0) / steps,
                       "count"};
  L["check.violations"] = {violations, "count"};
  L["mem.llc.hit_pct"] = {lookups > 0.0 ? 100.0 * hits / lookups : 0.0, "%"};

  L["dba.trimmed_lines"] = {trimmed / steps, "count"};
  const double full = delta("coherence.m2s.flushdata") * 64.0;
  L["dba.saved_pct"] = {full > 0.0 ? 100.0 * delta("dba.bytes_saved") / full
                                   : 0.0,
                        "%"};
  const DbaReplay dr = replay_dba(domain);
  L["dba.pack_ns"] = {dr.pack_ns, "ns", true};
  L["dba.merge_ns"] = {dr.merge_ns, "ns", true};
  if (!dr.matches) out.errors.push_back("fabric_reduce: DBA replay diverged");

  const char* names[2] = {"down", "up"};
  for (int d = 0; d < 2; ++d) {
    const std::string p = std::string("cxl.") + names[d] + '.';
    L[p + "packets"] = {packets[d] / steps, "count"};
    L[p + "mib"] = {bytes[d] / kMiB / steps, "MiB"};
    L[p + "busy_pct"] = {100.0 * busy[d] / (wall * kNodes), "%"};
    L[p + "stall_ms"] = {stall[d] * 1e3 / steps, "ms"};
  }
  L["cxl.retries"] = {delta("cxl.down.retries") + delta("cxl.up.retries"),
                      "count"};

  // Event-queue schedules as the causal graph saw them (it also holds the
  // five phase nodes each step appends).
  const double events = static_cast<double>(graph.size() - nodes0);
  L["sim.events"] = {events / steps, "count"};
  L["sim.ns_per_event"] = {run_step_s * 1e9 / events, "ns", true};
  using obs::causal::Category;
  add_critpath_shares(L, cats,
                      {Category::kCxlUp, Category::kCxlDown,
                       Category::kSwitchQueue, Category::kPoolReduce});
  return out;
}

std::map<std::string, std::string> crosscheck_fabric_allreduce() {
  // bench_fabric_allreduce's last merge arm: 8 nodes, 64 KiB shards, one
  // warm-up and three measured steps, gradients seeded per (step, node).
  constexpr std::uint32_t nodes = 8;
  fabric::PoolAllReduce ar(reduce_config(nodes, 64 * 1024));
  std::vector<float> shard(ar.shard_floats());
  for (std::uint64_t step = 0; step <= 3; ++step) {
    for (std::uint32_t n = 0; n < nodes; ++n) {
      sim::Rng rng(1 + step * 64 + n);
      for (float& v : shard) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      ar.set_node_gradients(n, shard);
    }
    ar.run_step();
  }
  std::map<std::string, std::string> out;
  for (const auto& s : ar.registry().samples()) {
    out[s.name] = obs::json_number(s.value);
  }
  return out;
}

}  // namespace perfbench
