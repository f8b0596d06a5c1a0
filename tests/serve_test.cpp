// teco::serve — arrival processes, admission control, prefill/decode
// scheduling, KV paging over the shared CXL link, SLO accounting, and
// seeded bit-identical replay.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "cxl/link.hpp"
#include "obs/metrics.hpp"
#include "serve/arrival.hpp"
#include "serve/kv_cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/serve.hpp"
#include "serve_reference.hpp"
#include "tier/placement_planner.hpp"

namespace {

// TECO_OBS=OFF compiles metric recording to no-ops; tests asserting on
// recorded values skip (whole-test) or drop just those assertions.
#ifdef TECO_OBS_DISABLED
#define TECO_SKIP_WITHOUT_OBS() \
  GTEST_SKIP() << "telemetry recording compiled out (TECO_OBS=OFF)"
#else
#define TECO_SKIP_WITHOUT_OBS() (void)0
#endif


using namespace teco;

constexpr std::uint64_t kMiB = 1ull << 20;

TEST(ServeArrival, KindStringsRoundTrip) {
  for (const auto k : {serve::ArrivalKind::kPoisson,
                       serve::ArrivalKind::kBursty,
                       serve::ArrivalKind::kTrace}) {
    const auto back = serve::arrival_from_string(serve::to_string(k));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(serve::arrival_from_string("uniform").has_value());
}

TEST(ServeArrival, PoissonIsSeededAndRateFaithful) {
  serve::ServeConfig cfg;
  cfg.arrival = serve::ArrivalKind::kPoisson;
  cfg.rate_rps = 64.0;
  cfg.n_requests = 4000;
  cfg.seed = 9;

  serve::ArrivalProcess a(cfg);
  serve::ArrivalProcess b(cfg);
  sim::Time last = 0.0;
  sim::Time final_arrival = 0.0;
  for (;;) {
    const auto ra = a.next();
    const auto rb = b.next();
    ASSERT_EQ(ra.has_value(), rb.has_value());
    if (!ra.has_value()) break;
    // Bit-identical replay, monotone arrival times, sane geometry.
    EXPECT_EQ(ra->arrival, rb->arrival);
    EXPECT_EQ(ra->prompt_tokens, rb->prompt_tokens);
    EXPECT_EQ(ra->decode_tokens, rb->decode_tokens);
    EXPECT_GE(ra->arrival, last);
    EXPECT_GE(ra->prompt_tokens, 16u);
    last = ra->arrival;
    final_arrival = ra->arrival;
  }
  // 4000 arrivals at 64 rps span ~62.5 s; allow generous stochastic slack.
  EXPECT_NEAR(final_arrival, 4000.0 / 64.0, 10.0);
}

TEST(ServeArrival, BurstyPreservesLongRunRate) {
  serve::ServeConfig cfg;
  cfg.arrival = serve::ArrivalKind::kBursty;
  cfg.rate_rps = 64.0;
  cfg.n_requests = 20000;
  cfg.seed = 5;
  serve::ArrivalProcess a(cfg);
  sim::Time final_arrival = 0.0;
  std::size_t n = 0;
  while (const auto r = a.next()) {
    final_arrival = r->arrival;
    ++n;
  }
  ASSERT_EQ(n, cfg.n_requests);
  // The MMPP's calm/burst rates are scaled so the time-averaged offered
  // load still equals rate_rps (within stochastic noise at n = 2e4).
  EXPECT_NEAR(static_cast<double>(n) / final_arrival, 64.0, 6.0);
}

/// Trace helper: n requests at the given arrival times.
serve::ServeConfig trace_config(std::vector<serve::TraceRequest> reqs) {
  serve::ServeConfig cfg;
  cfg.arrival = serve::ArrivalKind::kTrace;
  cfg.trace = std::move(reqs);
  return cfg;
}

TEST(ServeScheduler, AdmissionRejectsBeyondCapacity) {
  // Three simultaneous arrivals into two session slots: the third must be
  // refused and counted against SLO attainment.
  serve::ServeConfig cfg = trace_config({{0.0, 64, 8},
                                         {0.0, 64, 8},
                                         {0.0, 64, 8}});
  cfg.max_sessions = 2;
  serve::ServeScheduler sched(cfg);
  const serve::ServeReport rep = sched.run();

  EXPECT_EQ(rep.offered, 3u);
  EXPECT_EQ(rep.admitted, 2u);
  EXPECT_EQ(rep.rejected, 1u);
  EXPECT_EQ(rep.completed, 2u);
  EXPECT_LE(rep.slo_attained, 2u);
  // Rejections count against the attainment denominator.
  EXPECT_LE(rep.slo_attainment(), 2.0 / 3.0);
#ifndef TECO_OBS_DISABLED
  EXPECT_EQ(sched.registry().value("serve.rejected"), 1.0);
  EXPECT_EQ(sched.registry().value("serve.admitted"), 2.0);
#endif
}

TEST(ServeScheduler, PrefillPrecedesDecodeAndSetsTtft) {
  serve::ServeConfig cfg = trace_config({{0.0, 32, 4}});
  serve::ServeScheduler sched(cfg);
  const serve::ServeReport rep = sched.run();

  EXPECT_EQ(rep.completed, 1u);
  // Prefill emits the first token; three decode iterations finish the rest.
  EXPECT_EQ(rep.tokens_generated, 4u);
#ifndef TECO_OBS_DISABLED
  EXPECT_EQ(sched.registry().value("serve.iterations.prefill"), 1.0);
  EXPECT_EQ(sched.registry().value("serve.iterations.decode"), 3.0);
#endif
  // No queueing, no paging: TTFT is the prefill iteration (up to the
  // histogram's 10 ms bin resolution).
  EXPECT_NEAR(rep.ttft.p50, cfg.cost.prefill_time(cfg.model, 32), 0.011);
  // Makespan = prefill + 3 decode iterations, all back to back.
  EXPECT_GT(rep.makespan, cfg.cost.prefill_time(cfg.model, 32));
  EXPECT_EQ(rep.slo_attained, 1u);
}

TEST(ServeScheduler, KvPagingMeetsDecodeDeadlines) {
  // 12 sessions x ~9.4 MiB of prompt KV (~120 MiB working set) against a
  // 64 MiB HBM budget and a 4-wide decode batch: rotation forces
  // continuous paging, but one batch (~38 MiB) still leaves prefetch
  // headroom. Every decode deadline is met — the batch blocks until its
  // KV is resident — and the lookahead policy hides (most of) the latency
  // the strawman exposes.
  std::vector<serve::TraceRequest> reqs(12, {0.0, 256, 32});
  auto run = [&](tier::Policy policy) {
    serve::ServeConfig cfg = trace_config(reqs);
    cfg.policy = policy;
    cfg.max_batch = 4;
    cfg.hbm_kv_bytes = 96 * kMiB;
    cfg.prefetch_depth = 2;
    serve::ServeScheduler sched(cfg);
    return sched.run();
  };
  const serve::ServeReport naive = run(tier::Policy::kNaiveSwap);
  const serve::ServeReport smart = run(tier::Policy::kMinStall);

  // Both complete every request (paging delays, never deadlocks).
  EXPECT_EQ(naive.completed, 12u);
  EXPECT_EQ(smart.completed, 12u);
  // KV really paged: bytes moved down the link, evictions happened.
  EXPECT_GT(naive.kv_pagein_bytes, 0u);
  EXPECT_GT(smart.kv_pagein_bytes, 0u);
  EXPECT_GT(naive.kv_demand_fetches, 0u);
  // Write-through evictions are clean-copy drops (no wire eviction).
  EXPECT_GT(naive.kv_clean_drops + smart.kv_clean_drops, 0u);
  EXPECT_EQ(naive.kv_evict_bytes, 0u);
  // The lookahead policy actually prefetches, and its exposed stall never
  // exceeds the demand-fetch strawman's.
  EXPECT_GT(smart.kv_prefetches, 0u);
  EXPECT_LE(smart.kv_stall, naive.kv_stall);
  EXPECT_GT(naive.kv_stall, 0.0);
  // The HBM budget was honored up to transient overcommit of one batch.
  EXPECT_GT(naive.hbm_peak_bytes, 0u);
}

TEST(ServeScheduler, KvTrafficSharesLinkWithCoherenceCounters) {
  TECO_SKIP_WITHOUT_OBS();
  // The acceptance check: one run populates BOTH the serve.* namespace and
  // the link's cxl.*/coherence.* namespaces, because KV paging and the
  // write-through stream ride the same cxl::Link.
  std::vector<serve::TraceRequest> reqs(8, {0.0, 256, 16});
  serve::ServeConfig cfg = trace_config(reqs);
  cfg.max_batch = 2;
  cfg.hbm_kv_bytes = 24 * kMiB;
  serve::ServeScheduler sched(cfg);
  sched.run();
  obs::MetricsRegistry& reg = sched.registry();
  EXPECT_GT(reg.value("serve.tokens"), 0.0);
  EXPECT_GT(reg.value("serve.kv.pagein_bytes"), 0.0);
  EXPECT_GT(reg.value("cxl.down.bytes"), 0.0);  // Page-ins.
  EXPECT_GT(reg.value("cxl.up.bytes"), 0.0);    // Write-through pushes.
  EXPECT_GT(reg.value("coherence.s2m.flushdata"), 0.0);
  EXPECT_GT(reg.value("coherence.m2s.msgs"), 0.0);
}

TEST(ServeScheduler, WritethroughOffPaysWireEvictions) {
  std::vector<serve::TraceRequest> reqs(8, {0.0, 256, 16});
  serve::ServeConfig cfg = trace_config(reqs);
  cfg.max_batch = 2;
  cfg.hbm_kv_bytes = 24 * kMiB;
  cfg.kv_writethrough = false;
  serve::ServeScheduler sched(cfg);
  const serve::ServeReport rep = sched.run();
  // Invalidation-style domain: evictions are full transfers, not drops.
  EXPECT_GT(rep.kv_evict_bytes, 0u);
}

TEST(ServeScheduler, SloAccountingMath) {
  serve::ServeConfig cfg;
  cfg.slo_ttft = sim::ms(250);
  cfg.slo_tpot = 0.0;  // Derive: 25 ms per token.
  EXPECT_DOUBLE_EQ(cfg.effective_slo_tpot(), sim::ms(25));

  EXPECT_TRUE(serve::ServeScheduler::attains_slo(cfg, sim::ms(250),
                                                 sim::ms(25)));
  EXPECT_FALSE(serve::ServeScheduler::attains_slo(cfg, sim::ms(251),
                                                  sim::ms(1)));
  EXPECT_FALSE(serve::ServeScheduler::attains_slo(cfg, sim::ms(1),
                                                  sim::ms(26)));
  cfg.slo_tpot = sim::ms(50);
  EXPECT_DOUBLE_EQ(cfg.effective_slo_tpot(), sim::ms(50));
  EXPECT_TRUE(serve::ServeScheduler::attains_slo(cfg, sim::ms(100),
                                                 sim::ms(40)));

  // Report-level arithmetic.
  serve::ServeReport rep;
  rep.offered = 10;
  rep.slo_attained = 7;
  EXPECT_DOUBLE_EQ(rep.slo_attainment(), 0.7);
  rep.completed = 8;
  rep.makespan = 4.0;
  EXPECT_DOUBLE_EQ(rep.goodput_rps(), 2.0);
}

TEST(ServeScheduler, SeededRunReplaysBitIdentically) {
  // The full acceptance property: two schedulers built from one config —
  // bursty arrivals, tight HBM, paging, the lot — produce identical
  // reports AND identical obs registry snapshots, sample for sample.
  serve::ServeConfig cfg;
  cfg.arrival = serve::ArrivalKind::kBursty;
  cfg.rate_rps = 200.0;
  cfg.n_requests = 60;
  cfg.seed = 31;
  cfg.max_batch = 4;
  cfg.max_sessions = 24;
  cfg.hbm_kv_bytes = 48 * kMiB;

  serve::ServeScheduler s1(cfg);
  serve::ServeScheduler s2(cfg);
  const serve::ServeReport r1 = s1.run();
  const serve::ServeReport r2 = s2.run();

  EXPECT_EQ(r1.offered, r2.offered);
  EXPECT_EQ(r1.admitted, r2.admitted);
  EXPECT_EQ(r1.rejected, r2.rejected);
  EXPECT_EQ(r1.completed, r2.completed);
  EXPECT_EQ(r1.slo_attained, r2.slo_attained);
  EXPECT_EQ(r1.tokens_generated, r2.tokens_generated);
  EXPECT_EQ(r1.makespan, r2.makespan);  // Bitwise: same double.
  EXPECT_EQ(r1.ttft.p50, r2.ttft.p50);
  EXPECT_EQ(r1.ttft.p999, r2.ttft.p999);
  EXPECT_EQ(r1.tpot.p99, r2.tpot.p99);
  EXPECT_EQ(r1.kv_pagein_bytes, r2.kv_pagein_bytes);
  EXPECT_EQ(r1.kv_stall, r2.kv_stall);

  const auto snap1 = s1.registry().samples();
  const auto snap2 = s2.registry().samples();
  ASSERT_EQ(snap1.size(), snap2.size());
  for (std::size_t i = 0; i < snap1.size(); ++i) {
    EXPECT_EQ(snap1[i].name, snap2[i].name);
    EXPECT_EQ(snap1[i].value, snap2[i].value) << snap1[i].name;
  }
  // And the snapshot actually contains both namespaces plus p999 samples.
  bool saw_p999 = false;
  for (const auto& s : snap1) saw_p999 |= s.name == "serve.ttft_us.p999";
  EXPECT_TRUE(saw_p999);
}

/// Zero-delay fault hook: records every link submission, changes nothing.
struct SendLog final : cxl::LinkFaultHook {
  struct Send {
    cxl::Direction dir;
    sim::Time t;
    cxl::Packet pkt;
    std::uint64_t count;
    bool operator==(const Send& o) const {
      return dir == o.dir && t == o.t && pkt.type == o.pkt.type &&
             pkt.addr == o.pkt.addr &&
             pkt.payload_bytes == o.pkt.payload_bytes &&
             pkt.dba_aggregated == o.pkt.dba_aggregated && count == o.count;
    }
  };
  std::vector<Send> sends;
  sim::Time transmit_delay(cxl::Direction dir, sim::Time t,
                           const cxl::Packet& pkt, std::uint64_t n) override {
    sends.push_back({dir, t, pkt, n});
    return 0.0;
  }
};

/// Everything a run exposes, for exact comparison across implementations.
struct Outcome {
  serve::ServeReport rep;
  std::vector<std::pair<std::string, double>> snapshot;
  std::vector<std::size_t> ttft_bins, tpot_bins;  ///< Incl. under/overflow.
  std::vector<cxl::ChannelStats> channels;        ///< Down, up.
  std::vector<SendLog::Send> sends;
};

std::vector<std::size_t> buckets(const obs::MetricsRegistry& reg,
                                 const char* name) {
  std::vector<std::size_t> out;
  const obs::Hist* h = reg.find_histogram(name);
  if (h == nullptr) return out;
  const sim::Histogram& b = h->histogram();
  out.push_back(b.underflow());
  for (std::size_t i = 0; i < b.bins(); ++i) out.push_back(b.bin_count(i));
  out.push_back(b.overflow());
  return out;
}

/// Run `Sched` on `cfg`; `arm` may schedule events on its queue first.
template <typename Sched>
Outcome run_recorded(const serve::ServeConfig& cfg,
                     const std::function<void(Sched&)>& arm = {}) {
  Sched sched(cfg);
  SendLog log;
  sched.link().set_fault_hook(&log);
  if (arm) arm(sched);
  Outcome o;
  o.rep = sched.run();
  for (const auto& smp : sched.registry().samples()) {
    o.snapshot.emplace_back(smp.name, smp.value);
  }
  o.ttft_bins = buckets(sched.registry(), "serve.ttft_us");
  o.tpot_bins = buckets(sched.registry(), "serve.tpot_us");
  for (const auto dir :
       {cxl::Direction::kCpuToDevice, cxl::Direction::kDeviceToCpu}) {
    o.channels.push_back(sched.link().channel(dir).stats());
  }
  o.sends = std::move(log.sends);
  sched.link().set_fault_hook(nullptr);
  return o;
}

void expect_same_report(const serve::ServeReport& a,
                        const serve::ServeReport& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.slo_attained, b.slo_attained);
  EXPECT_EQ(a.tokens_generated, b.tokens_generated);
  EXPECT_EQ(a.makespan, b.makespan);  // Bitwise: same double.
  for (const auto& [x, y] : {std::pair{a.ttft, b.ttft}, {a.tpot, b.tpot}}) {
    EXPECT_EQ(x.p50, y.p50);
    EXPECT_EQ(x.p99, y.p99);
    EXPECT_EQ(x.p999, y.p999);
  }
  EXPECT_EQ(a.kv_pagein_bytes, b.kv_pagein_bytes);
  EXPECT_EQ(a.kv_evict_bytes, b.kv_evict_bytes);
  EXPECT_EQ(a.kv_clean_drops, b.kv_clean_drops);
  EXPECT_EQ(a.kv_demand_fetches, b.kv_demand_fetches);
  EXPECT_EQ(a.kv_prefetches, b.kv_prefetches);
  EXPECT_EQ(a.kv_stall, b.kv_stall);
  EXPECT_EQ(a.hbm_peak_bytes, b.hbm_peak_bytes);
}

void expect_same_channel(const cxl::ChannelStats& a,
                         const cxl::ChannelStats& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.busy_time, b.busy_time);
  EXPECT_EQ(a.producer_stall, b.producer_stall);
  EXPECT_EQ(a.stalled_packets, b.stalled_packets);
  EXPECT_EQ(a.last_finish, b.last_finish);
  EXPECT_EQ(a.last_delivery, b.last_delivery);
  EXPECT_EQ(a.flits, b.flits);
  EXPECT_EQ(a.retried_flits, b.retried_flits);
  EXPECT_EQ(a.retry_time, b.retry_time);
}

TEST(ServeScheduler, MatchesMapBasedReference) {
  // The slot-handle scheduler against a verbatim copy of the id-keyed one
  // (tests/serve_reference.hpp): Poisson, bursty and trace arrivals under
  // every policy, write-through on and off, lookahead off and on, and an
  // HBM budget of about five prompts (evictions, overcommits) or thirteen
  // (prefetch headroom), with fewer slots than the load needs (rejections).
  // Every observable must match exactly, down to the order and timing of
  // each link submission. The slot scheduler also runs read-only invariant
  // probes every 0.5 ms of simulated time; matching the reference shows
  // they perturb nothing.
  // One trace request in five needs a single token: it completes inside
  // its prefill group, between the group's KV appends.
  std::vector<serve::TraceRequest> trace;
  for (std::uint32_t i = 0; i < 48; ++i) {
    trace.push_back({0.004 * (i / 3), 64 + 97 * (i % 7), 1 + 13 * (i % 5)});
  }
  std::vector<serve::ServeConfig> cfgs;
  for (const auto arrival : {serve::ArrivalKind::kPoisson,
                             serve::ArrivalKind::kBursty,
                             serve::ArrivalKind::kTrace}) {
    for (const auto policy :
         {tier::Policy::kAllHbm, tier::Policy::kNaiveSwap,
          tier::Policy::kMinStall, tier::Policy::kKnapsack}) {
      for (int variant = 0; variant < 8; ++variant) {
        serve::ServeConfig cfg;
        cfg.arrival = arrival;
        cfg.rate_rps = 60.0;
        cfg.n_requests = 70;
        cfg.seed = 40 + static_cast<std::uint64_t>(policy);
        cfg.median_prompt_tokens = 256;
        cfg.median_decode_tokens = 48;
        if (arrival == serve::ArrivalKind::kTrace) cfg.trace = trace;
        cfg.max_sessions = 16;
        cfg.max_batch = 4;
        cfg.policy = policy;
        cfg.kv_writethrough = (variant & 1) != 0;
        cfg.prefetch_depth = (variant & 2) != 0 ? 2 : 0;
        cfg.hbm_kv_bytes = (variant & 4) != 0 ? 128 * kMiB : 48 * kMiB;
        cfgs.push_back(cfg);
      }
    }
  }

  std::size_t evict_runs = 0, drop_runs = 0, reject_runs = 0;
  std::size_t prefetch_runs = 0, overcommit_runs = 0, probes = 0;
  for (const serve::ServeConfig& cfg : cfgs) {
    SCOPED_TRACE(std::string(serve::to_string(cfg.arrival)) + " " +
                 std::string(tier::to_string(cfg.policy)) + " wt " +
                 std::to_string(cfg.kv_writethrough) + " depth " +
                 std::to_string(cfg.prefetch_depth) + " hbm " +
                 std::to_string(cfg.hbm_kv_bytes / kMiB));
    std::vector<std::string> violations;
    std::function<void()> probe;
    const auto arm = [&](serve::ServeScheduler& s) {
      probe = [&] {
        ++probes;
        for (auto& v : s.check_invariants()) violations.push_back(v);
        s.queue().schedule_after(sim::us(500), probe);
      };
      s.queue().schedule_at(0.0, probe);
    };
    const Outcome got = run_recorded<serve::ServeScheduler>(cfg, arm);
    const Outcome want = run_recorded<ref::ServeScheduler>(cfg);

    EXPECT_TRUE(violations.empty()) << violations.front();
    expect_same_report(got.rep, want.rep);
    EXPECT_EQ(got.snapshot, want.snapshot);
    EXPECT_EQ(got.ttft_bins, want.ttft_bins);
    EXPECT_EQ(got.tpot_bins, want.tpot_bins);
    ASSERT_EQ(got.channels.size(), want.channels.size());
    for (std::size_t d = 0; d < got.channels.size(); ++d) {
      expect_same_channel(got.channels[d], want.channels[d]);
    }
    ASSERT_EQ(got.sends.size(), want.sends.size());
    for (std::size_t i = 0; i < got.sends.size(); ++i) {
      ASSERT_TRUE(got.sends[i] == want.sends[i]) << "send " << i;
    }
    evict_runs += want.rep.kv_evict_bytes > 0;
    drop_runs += want.rep.kv_clean_drops > 0;
    reject_runs += want.rep.rejected > 0;
    prefetch_runs += want.rep.kv_prefetches > 0;
    for (const auto& [name, v] : want.snapshot) {
      overcommit_runs += name == "serve.kv.overcommits" && v > 0.0;
    }
  }
  // The sweep really reaches every path it claims to cover.
  EXPECT_GT(probes, cfgs.size());
  EXPECT_GT(evict_runs, 0u);
  EXPECT_GT(drop_runs, 0u);
  EXPECT_GT(reject_runs, 0u);
  EXPECT_GT(prefetch_runs, 0u);
#ifndef TECO_OBS_DISABLED
  EXPECT_GT(overcommit_runs, 0u);
#endif
}

TEST(ServeVictimOrder, PoliciesRankCandidatesDistinctly) {
  using tier::VictimCandidate;
  // c0: small+hot, c1: large+cold, c2: needed furthest in the future.
  std::vector<VictimCandidate> base = {
      {0, 1 * kMiB, 0.1, 0.1},
      {1, 64 * kMiB, 5.0, 0.2},
      {2, 2 * kMiB, 1.0, 9.0},
  };
  auto v = base;
  tier::order_victims(tier::Policy::kNaiveSwap, v);
  EXPECT_EQ(v[0].id, 0u);  // Id order, no intelligence.

  v = base;
  tier::order_victims(tier::Policy::kMinStall, v);
  EXPECT_EQ(v[0].id, 2u);  // Belady: furthest next use first.

  v = base;
  tier::order_victims(tier::Policy::kKnapsack, v);
  EXPECT_EQ(v[0].id, 1u);  // Byte-seconds: cold-and-large first.
}

}  // namespace
