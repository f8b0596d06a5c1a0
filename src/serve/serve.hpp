// teco::serve — multi-tenant LLM inference serving over the CXL domain.
//
// An open-loop arrival process (arrival.hpp) admits concurrent sessions
// whose per-token KV-caches grow through decode and page between HBM and
// CXL DRAM (kv_cache.hpp) on the SAME cxl::Link the coherence/update
// streams ride, under a continuous-batching scheduler (scheduler.hpp) on
// one sim::EventQueue. TTFT and inter-token latency are obs histograms; a
// request attains its SLO when it was admitted, its TTFT met serve_slo_ms
// and its mean inter-token latency met the derived per-token budget.
// docs/SERVING.md is the guide.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "dl/model_zoo.hpp"
#include "sim/time.hpp"
#include "tier/placement_planner.hpp"

namespace teco::serve {

/// Arrival process shape (config key `serve_arrival`).
enum class ArrivalKind : std::uint8_t {
  kPoisson,  ///< Exponential interarrivals at the offered rate.
  kBursty,   ///< Two-state MMPP: calm/burst dwell, same long-run rate.
  kTrace,    ///< Replay explicit (time, prompt, decode) tuples.
};

std::string_view to_string(ArrivalKind k);
/// Parse the config-file spelling (poisson | bursty | trace); nullopt
/// for anything else.
std::optional<ArrivalKind> arrival_from_string(std::string_view s);

/// One inference request as the arrival process emits it.
struct Request {
  std::uint64_t id = 0;
  sim::Time arrival = 0.0;
  std::uint32_t prompt_tokens = 0;  ///< Prefill length.
  std::uint32_t decode_tokens = 0;  ///< Tokens to generate after prefill.
};

/// Explicit trace entry for ArrivalKind::kTrace.
struct TraceRequest {
  sim::Time arrival = 0.0;
  std::uint32_t prompt_tokens = 0;
  std::uint32_t decode_tokens = 0;
};

/// Serving cost model. Prefill is compute-bound (FLOPs against an
/// effective tensor-core rate), decode is memory-bound (the whole FP16
/// weight set plus every scheduled session's resident KV bytes stream
/// through HBM once per iteration). Constants follow the V100 calibration
/// in offload::Calibration.
struct CostModel {
  double gpu_eff_flops = 50e12;     ///< Achieved prefill FLOP rate.
  double hbm_read_bw = 900e9;       ///< V100-class HBM2 streaming read.
  sim::Time iter_floor = sim::us(200);  ///< Launch + sync floor per iter.

  /// Compute-bound batched prefill of `tokens` prompt tokens.
  sim::Time prefill_time(const dl::ModelConfig& m,
                         std::uint64_t tokens) const {
    const double flops =
        2.0 * static_cast<double>(m.n_params) * static_cast<double>(tokens);
    return iter_floor + flops / gpu_eff_flops;
  }
  /// Memory-bound decode iteration: one token for every batched session.
  sim::Time decode_time(const dl::ModelConfig& m,
                        std::uint64_t batch_kv_bytes) const {
    const double bytes =
        static_cast<double>(m.n_params) * 2.0 +  // FP16 weight sweep.
        static_cast<double>(batch_kv_bytes);
    return iter_floor + bytes / hbm_read_bw;
  }
};

/// Bytes of KV-cache (K and V, FP16, all layers) one token occupies.
std::uint64_t kv_bytes_per_token(const dl::ModelConfig& m);

struct ServeConfig {
  // --- Arrival process (all sampling via sim::Rng from `seed`) ---
  ArrivalKind arrival = ArrivalKind::kPoisson;
  double rate_rps = 32.0;        ///< Offered load, requests per second.
  std::size_t n_requests = 500;  ///< Open-loop request count.
  std::uint64_t seed = 1;
  /// Bursty (MMPP) shape: the burst state multiplies the rate by
  /// `burst_factor` for exponentially-dwelled windows covering
  /// `burst_fraction` of time; the calm rate is scaled so the long-run
  /// offered load still equals rate_rps.
  double burst_factor = 8.0;
  double burst_fraction = 0.1;
  sim::Time mean_burst_len = sim::ms(250);
  /// Trace replay (ArrivalKind::kTrace); must be sorted by arrival.
  std::vector<TraceRequest> trace;

  /// Request geometry: lognormal token counts around these medians
  /// (sigma in log-space), clamped to [16, 8 * median].
  std::uint32_t median_prompt_tokens = 512;
  std::uint32_t median_decode_tokens = 128;
  double token_sigma = 0.5;

  // --- Capacity & scheduling ---
  std::size_t max_sessions = 1024;  ///< Admission capacity (serve_sessions).
  std::size_t max_batch = 64;       ///< Decode batch width.
  std::uint32_t max_prefill_tokens = 2048;  ///< Per prefill iteration.

  // --- KV tiering ---
  std::uint64_t hbm_kv_bytes = 8ull << 30;  ///< HBM budget for KV pages.
  tier::Policy policy = tier::Policy::kMinStall;
  /// Decode iterations of lookahead for paging in sessions about to rotate
  /// into the batch (ignored under kNaiveSwap).
  std::size_t prefetch_depth = 2;
  /// Update-push write-through: newly appended KV lines stream to the CXL
  /// home as they are produced (the paper's update protocol applied to the
  /// KV working set), which makes evictions clean-copy drops. Off models an
  /// invalidation-style domain where every eviction pays a full transfer.
  bool kv_writethrough = true;

  // --- SLO ---
  sim::Time slo_ttft = sim::ms(250);  ///< serve_slo_ms.
  /// Mean inter-token budget; <= 0 derives slo_ttft / 10.
  sim::Time slo_tpot = 0.0;

  dl::ModelConfig model = dl::gpt2();
  CostModel cost{};

  sim::Time effective_slo_tpot() const {
    return slo_tpot > 0.0 ? slo_tpot : slo_ttft / 10.0;
  }
};

/// Quantile triple of one latency distribution, in seconds.
struct LatencyQuantiles {
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// The run's outcome. Counts also land in the serve.* registry namespace;
/// the report carries the headline numbers benches print.
struct ServeReport {
  std::size_t offered = 0;    ///< Requests the arrival process emitted.
  std::size_t admitted = 0;
  std::size_t rejected = 0;   ///< Capacity-admission refusals.
  std::size_t completed = 0;
  std::size_t slo_attained = 0;
  std::uint64_t tokens_generated = 0;
  sim::Time makespan = 0.0;   ///< Last completion (or last arrival).

  LatencyQuantiles ttft;      ///< Time-to-first-token.
  LatencyQuantiles tpot;      ///< Inter-token latency.

  std::uint64_t kv_pagein_bytes = 0;
  std::uint64_t kv_evict_bytes = 0;   ///< Wire evictions (writethrough off).
  std::uint64_t kv_clean_drops = 0;   ///< Free evictions (clean CXL copy).
  std::uint64_t kv_demand_fetches = 0;
  std::uint64_t kv_prefetches = 0;
  sim::Time kv_stall = 0.0;           ///< Exposed paging stall.
  std::uint64_t hbm_peak_bytes = 0;

  double slo_attainment() const {
    return offered == 0
               ? 1.0
               : static_cast<double>(slo_attained) /
                     static_cast<double>(offered);
  }
  double goodput_rps() const {
    return makespan > 0.0
               ? static_cast<double>(completed) / makespan
               : 0.0;
  }
};

}  // namespace teco::serve
