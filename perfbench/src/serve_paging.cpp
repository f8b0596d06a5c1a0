// serve_paging: open-loop Poisson arrivals at the load knee of a 512 MiB
// HBM KV budget.
//
// The benchmark draws arrival traces from the seed and feeds them to
// serve::ServeScheduler as ArrivalKind::kTrace (GPT-2 proxy, min_stall,
// write-through, 48 sessions, decode batch 16). KV paging shares the link
// with the write-through update stream, all through
// cxl::Channel::submit_stream. One unit is one request.
//
// A pass runs ten independent 400-request traces, each on a fresh
// scheduler whose HBM KV cache starts empty; the schedulers share one
// registry, so the TTFT/TPOT quantiles pool all 4000 requests. This
// configuration is bistable: once more sessions run than the decode batch
// holds, rotation slows decode, sessions pile up and paging thrashes. At
// the default 512-token prompt median, paging happens only in the bursts
// that tip a run into that collapse, so whether a seed collapses decides
// its results. With a 768-token median at 20 rps every seed pages (the KV
// working set crosses the budget) and about 1 seed in 100 collapses; at
// 22 rps 4 in 100 do.
#include <memory>

#include "obs/causal.hpp"
#include "obs/json.hpp"
#include "perfbench.hpp"
#include "recorders.hpp"
#include "serve/arrival.hpp"
#include "serve/scheduler.hpp"
#include "sim/rng.hpp"

namespace perfbench {

namespace {

using namespace teco;

constexpr std::size_t kRuns = 10;
constexpr std::size_t kRequestsPerRun = 400;
constexpr std::size_t kRequests = kRuns * kRequestsPerRun;
constexpr double kRateRps = 20.0;
constexpr std::uint32_t kPromptMedian = 768;
constexpr std::uint64_t kHbmKvBytes = 512ull << 20;

serve::ServeConfig paging_config(std::vector<serve::TraceRequest> trace) {
  serve::ServeConfig cfg;
  cfg.arrival = serve::ArrivalKind::kTrace;
  cfg.trace = std::move(trace);
  cfg.n_requests = cfg.trace.size();
  cfg.max_sessions = 48;
  cfg.max_batch = 16;
  cfg.hbm_kv_bytes = kHbmKvBytes;
  cfg.policy = tier::Policy::kMinStall;
  cfg.kv_writethrough = true;
  return cfg;
}

/// Poisson arrivals at kRateRps with lognormal prompt/decode lengths,
/// clamped to [16, 8 * median] like the scheduler's own generator.
std::vector<serve::TraceRequest> make_trace(std::uint64_t seed, Digest& d) {
  const serve::ServeConfig shape;
  sim::Rng gaps(sub_seed(seed, 10));
  sim::Rng lens(sub_seed(seed, 11));
  const auto tokens = [&](std::uint32_t median) {
    const double raw =
        lens.next_lognormal(static_cast<double>(median), shape.token_sigma);
    return static_cast<std::uint32_t>(
        std::clamp(raw, 16.0, 8.0 * static_cast<double>(median)));
  };
  std::vector<serve::TraceRequest> trace(kRequestsPerRun);
  sim::Time t = 0.0;
  for (auto& r : trace) {
    t += gaps.next_interarrival(kRateRps);
    r.arrival = t;
    r.prompt_tokens = tokens(kPromptMedian);
    r.decode_tokens = tokens(shape.median_decode_tokens);
    d.add(&r.arrival, sizeof r.arrival);
    d.add(&r.prompt_tokens, sizeof r.prompt_tokens);
    d.add(&r.decode_tokens, sizeof r.decode_tokens);
  }
  return trace;
}

/// One independent run of the pass, with its optional recorders.
struct Run {
  std::unique_ptr<serve::ServeScheduler> sched;
  SendRecorder sends;
  obs::causal::CausalGraph graph;
  serve::ServeReport report;
};

}  // namespace

PassResult run_serve_paging(std::uint64_t seed, bool traced) {
  PassResult out;
  const auto setup0 = Clock::now();
  obs::MetricsRegistry reg;
  std::vector<Run> runs(kRuns);
  Digest digest;
  for (std::size_t i = 0; i < kRuns; ++i) {
    Run& run = runs[i];
    run.sched = std::make_unique<serve::ServeScheduler>(
        paging_config(make_trace(sub_seed(seed, i), digest)), &reg);
    if (traced) {
      run.sched->link().set_fault_hook(&run.sends);
      run.sched->set_causal(&run.graph);
    }
  }
  out.input_digest = digest.value();
  out.setup_s = seconds_since(setup0);

  out.units = kRequests;
  std::size_t offered = 0, attained = 0, completed = 0;
  sim::Time makespan = 0.0, stall = 0.0;
  std::uint64_t pagein = 0, demand = 0, prefetches = 0, rejected = 0;
  for (Run& run : runs) {
    const auto t0 = Clock::now();
    bool threw = false;
    try {
      run.report = run.sched->run();
    } catch (const std::exception& e) {
      out.errors.push_back(std::string("serve_paging: ") + e.what());
      threw = true;
    }
    const double run_s = seconds_since(t0);
    out.run_s += run_s;
    out.unit_s.push_back(run_s / static_cast<double>(kRequestsPerRun));
    // Oracles: every arrival completed or was rejected, and no TTFT is
    // negative (checked per request when traced).
    const serve::ServeReport& r = run.report;
    if (threw || r.offered != kRequestsPerRun ||
        r.completed + r.rejected != r.offered) {
      out.failed += kRequestsPerRun;
      continue;
    }
    for (const auto& rec : run.sched->ttft_records()) {
      if (rec.first_token < rec.arrival) ++out.failed;
    }
    offered += r.offered;
    attained += r.slo_attained;
    completed += r.completed;
    rejected += r.rejected;
    makespan += r.makespan;
    pagein += r.kv_pagein_bytes;
    demand += r.kv_demand_fetches;
    prefetches += r.kv_prefetches;
    stall += r.kv_stall;
  }
  const obs::Hist* ttft = reg.find_histogram("serve.ttft_us");
  if (reg.value("serve.arrivals") != static_cast<double>(kRequests) ||
      ttft == nullptr || ttft->stat().min() < 0.0) {
    out.failed = kRequests;
  }

  out.modeled["sim_ttft_ms.p50"] = {reg.value("serve.ttft_us.p50") / 1e3, "ms"};
  out.modeled["sim_ttft_ms.p99"] = {reg.value("serve.ttft_us.p99") / 1e3, "ms"};
  out.modeled["sim_tpot_ms.p99"] = {reg.value("serve.tpot_us.p99") / 1e3, "ms"};
  out.modeled["sim_slo_pct"] = {
      offered > 0 ? 100.0 * static_cast<double>(attained) /
                        static_cast<double>(offered)
                  : 0.0,
      "%"};
  out.modeled["sim_goodput_rps"] = {
      makespan > 0.0 ? static_cast<double>(completed) / makespan : 0.0, "1/s"};
  out.samples["sim_ttft_ms"] = reg.value("serve.ttft_us.count");
  out.samples["sim_tpot_ms"] = reg.value("serve.tpot_us.count");
  out.samples["sim_slo_pct"] = static_cast<double>(offered);
  out.fingerprint =
      metrics_fingerprint(out.modeled) + registry_fingerprint(reg);
  if (!traced) return out;

  // --- Per-layer metrics (totals over the pass's runs) -----------------------
  auto& L = out.layers;
  L["serve.iterations.prefill"] = {reg.value("serve.iterations.prefill"),
                                   "count"};
  L["serve.iterations.decode"] = {reg.value("serve.iterations.decode"),
                                  "count"};
  L["serve.kv.pagein_mib"] = {static_cast<double>(pagein) / kMiB, "MiB"};
  L["serve.kv.demand_fetches"] = {static_cast<double>(demand), "count"};
  L["serve.kv.prefetches"] = {static_cast<double>(prefetches), "count"};
  const double fetches = static_cast<double>(prefetches + demand);
  L["serve.kv.prefetch_hit_pct"] = {
      fetches > 0.0 ? 100.0 * static_cast<double>(prefetches) / fetches : 0.0,
      "%"};
  L["serve.kv.stall_ms"] = {stall * 1e3, "ms"};
  L["serve.rejected"] = {static_cast<double>(rejected), "count"};

  double packets[2] = {0, 0}, streams[2] = {0, 0}, bytes[2] = {0, 0},
         busy[2] = {0, 0}, wait[2] = {0, 0};
  double replay_s = 0.0, replay_calls = 0.0, events = 0.0;
  std::vector<double> cats(obs::causal::kNumCategories, 0.0);
  for (Run& run : runs) {
    for (const auto& s : run.sends.sends()) {
      streams[s.dir == cxl::Direction::kCpuToDevice ? 0 : 1] += 1.0;
    }
    for (int d = 0; d < 2; ++d) {
      const auto& s = run.sched->link()
                          .channel(d == 0 ? cxl::Direction::kCpuToDevice
                                          : cxl::Direction::kDeviceToCpu)
                          .stats();
      packets[d] += static_cast<double>(s.packets);
      bytes[d] += static_cast<double>(s.wire_bytes);
      busy[d] += s.busy_time;
      wait[d] += s.producer_stall;
    }
    const ChannelReplay cr =
        replay_channel(run.sends.sends(), run.sched->link(), true);
    replay_s += cr.host_s;
    replay_calls += static_cast<double>(cr.calls);
    if (!cr.matches) {
      out.errors.push_back("serve_paging: channel replay diverged");
    }
    events += static_cast<double>(run.sched->queue().executed());
    // The iteration chain ending at the last first token partitions the
    // run up to that point into compute, KV stalls and idle gaps.
    const auto& recs = run.sched->ttft_records();
    if (!recs.empty()) {
      const auto a = obs::causal::critical_path(
          run.graph, 0.0, recs.back().first_token, recs.back().terminal);
      for (std::size_t i = 0; i < cats.size(); ++i) {
        cats[i] += a.by_category[i];
      }
    }
  }
  const char* names[2] = {"down", "up"};
  for (int d = 0; d < 2; ++d) {
    const std::string p = std::string("cxl.") + names[d] + '.';
    L[p + "packets"] = {packets[d], "count"};
    L[p + "streams"] = {streams[d], "count"};
    L[p + "mib"] = {bytes[d] / kMiB, "MiB"};
    L[p + "busy_pct"] = {100.0 * busy[d] / makespan, "%"};
    L[p + "stall_ms"] = {wait[d] * 1e3, "ms"};
  }
  L["cxl.retries"] = {
      reg.value("cxl.down.retries") + reg.value("cxl.up.retries"), "count"};
  L["cxl.stream_ns"] = {replay_s * 1e9 / replay_calls, "ns", true};
  L["cxl.stream_share_pct"] = {100.0 * replay_s / out.run_s, "%", true};
  L["sim.events"] = {events / static_cast<double>(kRequests), "count"};
  using obs::causal::Category;
  add_critpath_shares(L, cats,
                      {Category::kCompute, Category::kDemandFetch,
                       Category::kEvictStall, Category::kIdle});
  return out;
}

std::map<std::string, std::string> crosscheck_serve_slo() {
  // bench_serve_slo's detail run (Poisson, 56 rps, 400 requests, seed 20),
  // materialised as a trace and run through this workload's configuration.
  serve::ServeConfig poisson;
  poisson.arrival = serve::ArrivalKind::kPoisson;
  poisson.rate_rps = 56.0;
  poisson.n_requests = 400;
  poisson.seed = 20;
  serve::ArrivalProcess arrivals(poisson);
  std::vector<serve::TraceRequest> trace;
  while (const auto req = arrivals.next()) {
    trace.push_back({req->arrival, req->prompt_tokens, req->decode_tokens});
  }
  obs::MetricsRegistry reg;
  {
    serve::ServeScheduler sched(paging_config(std::move(trace)), &reg);
    sched.run();
  }
  std::map<std::string, std::string> out;
  for (const auto& s : reg.samples()) out[s.name] = obs::json_number(s.value);
  return out;
}

}  // namespace perfbench
