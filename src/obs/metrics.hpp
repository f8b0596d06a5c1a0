// teco::obs — the unified telemetry spine (metrics registry).
//
// Every layer of the simulator used to keep its own ad-hoc totals
// (string-keyed counter sets here, hand-rolled uint64 fields there); the
// registry replaces them with one hierarchy of dot-named instruments so
// benches, step snapshots, and the BENCH_*.json pipeline all read the same
// numbers.
//
// Recording is handle-based: resolve once, record forever —
//
//   obs::Counter& c = reg.counter("cxl.up.flits");   // one string lookup
//   c.add(n);                                        // per event: one add
//
// Handles stay valid for the registry's lifetime (including across
// reset(), which zeroes values but never invalidates handles), so hot
// paths never touch a map. Compiling with TECO_OBS_DISABLED turns every
// record operation into a no-op while keeping registration and lookup
// alive, which is what the bench_micro_link overhead comparison measures.
//
// Naming scheme (docs/OBSERVABILITY.md): lowercase dot-separated paths,
// component prefix first — cxl.up.flits, coherence.m2s.flushdata,
// dba.bytes_saved, tier.prefetch_hits, ft.checkpoint_bytes, step.total_us.
// Times are recorded in microseconds and suffixed _us.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/stats.hpp"

namespace teco::obs {

/// Monotonically increasing value (events, bytes, accumulated time in us).
/// Double-valued so byte counts and microsecond accumulations share one
/// instrument; 2^53 of headroom is far beyond any simulated run.
class Counter {
 public:
  void add(double delta = 1.0) {
#ifndef TECO_OBS_DISABLED
    v_ += delta;
#else
    (void)delta;
#endif
  }
  double value() const { return v_; }
  void reset() { v_ = 0.0; }

 private:
  double v_ = 0.0;
};

/// Last-write-wins instantaneous value (occupancy, queue depth).
class Gauge {
 public:
  void set(double v) {
#ifndef TECO_OBS_DISABLED
    v_ = v;
#else
    (void)v;
#endif
  }
  double value() const { return v_; }
  void reset() { v_ = 0.0; }

 private:
  double v_ = 0.0;
};

/// Distribution instrument: a sim::RunningStat for moments plus a
/// sim::Histogram for quantiles — the storage types every measurement
/// path already used, now behind one handle.
class Hist {
 public:
  Hist(double lo, double hi, std::size_t bins)
      : lo_(lo), hi_(hi), bins_(bins), hist_(lo, hi, bins) {}

  void observe(double x) {
#ifndef TECO_OBS_DISABLED
    stat_.add(x);
    hist_.add(x);
#else
    (void)x;
#endif
  }

  const sim::RunningStat& stat() const { return stat_; }
  const sim::Histogram& histogram() const { return hist_; }
  double quantile(double q) const { return hist_.quantile(q); }
  std::size_t count() const { return stat_.count(); }
  void reset() {
    stat_ = sim::RunningStat{};
    hist_ = sim::Histogram(lo_, hi_, bins_);
  }

 private:
  double lo_, hi_;
  std::size_t bins_;
  sim::RunningStat stat_;
  sim::Histogram hist_;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

std::string_view to_string(MetricKind k);

/// One exported scalar. Histograms expand into several samples
/// (name.count, name.sum, name.mean, name.p50, name.p95, name.p99,
/// name.p999, name.max);
/// their kind marks which samples are monotone (deltas are meaningful)
/// versus instantaneous.
struct Sample {
  std::string name;
  double value = 0.0;
  MetricKind kind = MetricKind::kCounter;
  /// True when the sample is monotone non-decreasing (counter totals,
  /// histogram counts/sums) so per-step deltas are well defined.
  bool monotone = true;
};

/// Hierarchical, dot-named instrument registry. Registration is idempotent:
/// asking for an existing name returns the same handle. Re-registering a
/// name as a different kind throws std::logic_error — that is always a
/// naming bug, not a runtime condition.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Histogram bounds/bins are fixed at first registration; subsequent
  /// lookups ignore them and return the existing instrument.
  Hist& histogram(std::string_view name, double lo, double hi,
                  std::size_t bins);

  /// Lookup without registration; nullptr when absent or wrong kind.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Hist* find_histogram(std::string_view name) const;

  /// Scalar value of `name` (counter total, gauge value, or an expanded
  /// histogram sample such as "lat.p95"); 0.0 when absent. Convenience for
  /// tests and report code, not for hot paths.
  double value(std::string_view name) const;

  /// Every instrument flattened to samples, sorted by name.
  std::vector<Sample> samples() const;

  /// Zero all values. Handles stay valid — components that cached them
  /// keep recording into the same instruments. Pending deferred deltas are
  /// drained first, so they are zeroed too rather than leaking in later.
  void reset();

  /// Read-barrier flush hooks. A hot path may accumulate deltas into its
  /// own contiguous storage (cheaper than scattered counter stores) and
  /// register a flusher that folds them into the registry's instruments.
  /// Every aggregate read API — value(), samples(), reset() — drains the
  /// hooks first, so readers never observe a deferred value. `owner` keys
  /// removal; registering twice for one owner replaces the hook. Note:
  /// reading a cached Counter handle directly bypasses the barrier — go
  /// through the registry for instruments a flusher feeds.
  void add_flusher(const void* owner, std::function<void()> fn);
  void remove_flusher(const void* owner);

  std::size_t size() const { return instruments_.size(); }
  bool empty() const { return instruments_.empty(); }

 private:
  struct Instrument {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Hist> hist;
  };

  void flush() const;

  // std::map keeps iteration sorted (exports are deterministic) and, with
  // unique_ptr payloads, guarantees handle stability across rehash-free
  // inserts. Lookup cost does not matter: handles are resolved once.
  std::map<std::string, Instrument, std::less<>> instruments_;
  /// Deferred-delta drains, run before any aggregate read. Mutable because
  /// draining is a cache fill, not an observable state change.
  mutable std::vector<std::pair<const void*, std::function<void()>>>
      flushers_;
};

}  // namespace teco::obs
