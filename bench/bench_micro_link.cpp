// Substrate micro-benchmarks (google-benchmark): link serialization, DBA
// pack/merge, coherence operations, LZ4 codec, cache and event-queue costs,
// and one whole serving run.
// These quantify the cost of the simulation substrate itself, not the
// modeled hardware.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "compress/lz4.hpp"
#include "coherence/giant_cache.hpp"
#include "coherence/home_agent.hpp"
#include "cxl/channel.hpp"
#include "cxl/flit.hpp"
#include "cxl/link.hpp"
#include "obs/metrics.hpp"
#include "dba/aggregator.hpp"
#include "dba/disaggregator.hpp"
#include "dl/attention.hpp"
#include "dl/fp16.hpp"
#include "dl/tensor.hpp"
#include "mem/backing_store.hpp"
#include "mem/cache.hpp"
#include "mem/hierarchy.hpp"
#include "obs/causal.hpp"
#include "serve/arrival.hpp"
#include "serve/scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace {

using namespace teco;

void BM_ChannelSubmit(benchmark::State& state) {
  cxl::Channel ch("bench", 15.1e9, sim::ns(400));
  const auto pkt = cxl::data_packet(cxl::MessageType::kFlushData, 0, 64);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ch.submit(t, pkt));
    t += 1e-9;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelSubmit);

void BM_ChannelSubmitStream(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const auto pkt = cxl::data_packet(cxl::MessageType::kFlushData, 0, 64);
  for (auto _ : state) {
    cxl::Channel ch("bench", 15.1e9, sim::ns(400));
    benchmark::DoNotOptimize(ch.submit_stream(0.0, pkt, n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChannelSubmitStream)->Arg(1 << 10)->Arg(1 << 20);

// Admission against a full queue, the KV-paging pattern: back-to-back
// 16-line streams on one 128-deep channel, each issued as soon as the
// previous one was accepted, so every stream stalls on queued finishes.
void BM_ChannelSubmitStreamWarm(benchmark::State& state) {
  constexpr std::uint64_t kLines = 16;
  cxl::Channel ch("bench", 15.1e9, sim::ns(400), 128);
  const auto pkt = cxl::data_packet(cxl::MessageType::kFlushData, 0, 64);
  double t = 0.0;
  for (auto _ : state) {
    const cxl::Delivery d = ch.submit_stream(t, pkt, kLines);
    t = d.accepted;
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations() * kLines);
}
BENCHMARK(BM_ChannelSubmitStreamWarm);

// The obs overhead acceptance pair: identical link sends with and without
// a metrics registry attached. The delta between the two is the full cost
// of telemetry on the hottest simulator path (flit math + seven Counter
// adds); it must stay under 5 %. Build with -DTECO_OBS=OFF to measure the
// compiled-out floor.
void BM_LinkSendBare(benchmark::State& state) {
  cxl::Link link;
  const auto pkt = cxl::data_packet(cxl::MessageType::kFlushData, 0, 64);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        link.send(cxl::Direction::kCpuToDevice, t, pkt));
    t += 1e-9;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinkSendBare);

void BM_LinkSendMetrics(benchmark::State& state) {
  cxl::Link link;
  obs::MetricsRegistry reg;
  link.set_metrics(&reg);
  const auto pkt = cxl::data_packet(cxl::MessageType::kFlushData, 0, 64);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        link.send(cxl::Direction::kCpuToDevice, t, pkt));
    t += 1e-9;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinkSendMetrics);

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("bench.counter");
  for (auto _ : state) {
    c.add();
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_AggregatorPack(benchmark::State& state) {
  sim::Rng rng(1);
  mem::BackingStore::Line line;
  for (auto& b : line) b = static_cast<std::uint8_t>(rng.next_below(256));
  dba::Aggregator agg(dba::DbaRegister(true, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(agg.pack(line));
  }
  state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_AggregatorPack);

void BM_DisaggregatorMerge(benchmark::State& state) {
  sim::Rng rng(2);
  mem::BackingStore::Line old_line, new_line;
  for (auto& b : old_line) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto& b : new_line) b = static_cast<std::uint8_t>(rng.next_below(256));
  dba::Aggregator agg(dba::DbaRegister(true, 2));
  dba::Disaggregator dis(dba::DbaRegister(true, 2));
  const auto payload = agg.pack(new_line);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dis.merge(old_line, payload));
  }
  state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_DisaggregatorMerge);

void BM_HomeAgentUpdatePush(benchmark::State& state) {
  cxl::Link link;
  coherence::GiantCache gc(1ull << 26);
  gc.map_region("p", 0, 1ull << 24, coherence::MesiState::kExclusive, true);
  mem::Cache cpu(mem::llc_config());
  coherence::HomeAgent agent(link, gc, cpu, {});
  std::uint64_t line = 0;
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.cpu_write_line(t, (line % (1 << 18)) * 64));
    ++line;
    t += 1e-9;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HomeAgentUpdatePush);

void BM_CacheLookup(benchmark::State& state) {
  mem::Cache c(mem::llc_config());
  for (int i = 0; i < 4096; ++i) c.insert(i * 64, 1, false);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.lookup((i % 4096) * 64));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookup);

void BM_CacheLookupAfterFlushCycles(benchmark::State& state) {
  // The cpu_flush_all pattern: every step fills the LLC's S lines and then
  // drops them. After 100 such rounds each touched set has seen 100
  // insert/invalidate cycles; lookups then alternate a resident line and an
  // absent line of the same set.
  constexpr std::uint64_t kLines = 4096;
  mem::Cache c(mem::llc_config());
  for (int round = 0; round < 100; ++round) {
    for (std::uint64_t i = 0; i < kLines; ++i) c.insert(i * 64, 1, false);
    for (std::uint64_t i = 0; i < kLines; ++i) c.invalidate(i * 64, false);
  }
  for (std::uint64_t i = 0; i < kLines; ++i) c.insert(i * 64, 1, false);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::uint64_t line = i % kLines;
    benchmark::DoNotOptimize(c.lookup(line * 64));
    benchmark::DoNotOptimize(c.lookup((line + kLines) * 64));
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_CacheLookupAfterFlushCycles);

void BM_BackingStoreF32Span(benchmark::State& state) {
  // One Session hook's worth of data: a 1392-float parameter buffer written
  // into and read back out of a store, at a line-aligned base (arg 0) and
  // 4 bytes past it (arg 4).
  const mem::Addr base = 0x1000'0000 + static_cast<mem::Addr>(state.range(0));
  std::vector<float> values(1392);
  for (std::size_t k = 0; k < values.size(); ++k) {
    values[k] = static_cast<float>(k) * 0.25f;
  }
  std::vector<float> out(values.size());
  mem::BackingStore store;
  for (auto _ : state) {
    store.write_f32s(base, values);
    store.read_f32s(base, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * values.size() * 4 * 2);
}
BENCHMARK(BM_BackingStoreF32Span)->Arg(0)->Arg(4);

void BM_EventQueueSchedule(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < 1000; ++i) {
      q.schedule_at(static_cast<double>(i % 37), [] {});
    }
    q.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueSchedule);

// The causal-provenance overhead acceptance pair: BM_EventQueueSchedule is
// the bare baseline (null sink — one pointer test per schedule); this arm
// attaches a CausalGraph so every schedule appends one DAG node. The delta
// must stay under 5 %. Build with -DTECO_OBS=OFF to measure the
// compiled-out floor (the sink hook and Entry::node vanish entirely).
void BM_EventQueueScheduleCausal(benchmark::State& state) {
  obs::causal::CausalGraph g;
  for (auto _ : state) {
    sim::EventQueue q;
    q.set_causal_sink(&g);
    sim::TagScope tag(q, obs::causal::tag(obs::causal::Category::kCompute));
    for (int i = 0; i < 1000; ++i) {
      q.schedule_at(static_cast<double>(i % 37), [] {});
    }
    q.run();
    g.clear();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleCausal);

void BM_Lz4Compress(benchmark::State& state) {
  sim::Rng rng(3);
  std::vector<std::uint8_t> src(1 << 20);
  std::size_t i = 0;
  while (i < src.size()) {
    if (rng.next_bool(0.3)) {
      const std::size_t run = 16 + rng.next_below(128);
      for (std::size_t k = 0; k < run && i < src.size(); ++k) src[i++] = 0;
    } else {
      src[i++] = static_cast<std::uint8_t>(rng.next_below(256));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::lz4_compress(src));
  }
  state.SetBytesProcessed(state.iterations() * src.size());
}
BENCHMARK(BM_Lz4Compress);

void BM_Lz4Decompress(benchmark::State& state) {
  sim::Rng rng(4);
  std::vector<std::uint8_t> src(1 << 20);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(rng.next_below(8));
  }
  const auto packed = compress::lz4_compress(src);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::lz4_decompress(packed, src.size()));
  }
  state.SetBytesProcessed(state.iterations() * src.size());
}
BENCHMARK(BM_Lz4Decompress);

void BM_FlitPacking(benchmark::State& state) {
  const cxl::FlitCodec codec;
  std::uint64_t n = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.wire_bytes_for_burst(n % 100'000 + 1, 64));
    ++n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlitPacking);

void BM_Fp16RoundArray(benchmark::State& state) {
  sim::Rng rng(5);
  std::vector<float> v(1 << 16);
  for (auto& x : v) x = static_cast<float>(rng.next_gaussian());
  for (auto _ : state) {
    dl::fp16_round_array(v);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetBytesProcessed(state.iterations() * v.size() * 4);
}
BENCHMARK(BM_Fp16RoundArray);

void BM_AdamSweepHierarchy(benchmark::State& state) {
  // Cache-hierarchy cost of validating the one-writeback-per-line premise.
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem::simulate_adam_sweep(1 << 16));
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_AdamSweepHierarchy);

// The MLP activation of one train_dba forward: tanh over TinyTransformer's
// 32 x 64 pre-activations, refreshed from a copy each iteration so every
// pass sees the same inputs.
void BM_TanhActivation(benchmark::State& state) {
  sim::Rng rng(8);
  std::vector<float> pre(32 * 64);
  for (auto& x : pre) x = static_cast<float>(rng.next_gaussian()) * 1.5f;
  std::vector<float> z(pre.size());
  for (auto _ : state) {
    std::copy(pre.begin(), pre.end(), z.begin());
    dl::tanh(z);
    benchmark::DoNotOptimize(z.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * pre.size());
}
BENCHMARK(BM_TanhActivation);

void BM_TransformerStep(benchmark::State& state) {
  dl::TransformerConfig cfg;
  cfg.seq_len = 2;
  cfg.d_model = 8;
  cfg.d_ff = 64;
  cfg.out_dim = 10;
  cfg.output = dl::OutputKind::kClassification;
  dl::TinyTransformer net(cfg);
  sim::Rng rng(6);
  const dl::Tensor x = dl::Tensor::randn(32, 16, rng, 1.0f);
  dl::Tensor y(32, 1);
  for (int i = 0; i < 32; ++i) y.at(i, 0) = static_cast<float>(i % 10);
  for (auto _ : state) {
    net.forward(x);
    benchmark::DoNotOptimize(net.backward(y));
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_TransformerStep);

// The serving stack as one layer: a 400-request trace run in the shape of
// perfbench serve_paging (Poisson at 20 rps, 768-token prompt median, 48
// sessions, decode batch 16, 512 MiB HBM KV budget, min_stall,
// write-through), on a fresh scheduler per iteration. Reported per request:
// scheduler bookkeeping, KV paging decisions and the link sends they make.
void BM_ServeTraceRun(benchmark::State& state) {
  serve::ServeConfig shape;
  shape.arrival = serve::ArrivalKind::kPoisson;
  shape.rate_rps = 20.0;
  shape.n_requests = 400;
  shape.seed = 9;
  shape.median_prompt_tokens = 768;
  serve::ArrivalProcess arrivals(shape);
  serve::ServeConfig cfg;
  cfg.arrival = serve::ArrivalKind::kTrace;
  while (const auto r = arrivals.next()) {
    cfg.trace.push_back({r->arrival, r->prompt_tokens, r->decode_tokens});
  }
  cfg.n_requests = cfg.trace.size();
  cfg.max_sessions = 48;
  cfg.max_batch = 16;
  cfg.hbm_kv_bytes = 512ull << 20;
  cfg.policy = tier::Policy::kMinStall;
  cfg.kv_writethrough = true;
  for (auto _ : state) {
    serve::ServeScheduler sched(cfg);
    benchmark::DoNotOptimize(sched.run());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cfg.n_requests));
  state.counters["per_request"] = benchmark::Counter(
      static_cast<double>(cfg.n_requests),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_ServeTraceRun)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
