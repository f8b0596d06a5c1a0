// Shared types of the repository benchmark (see perfbench/README.md).
//
// A workload runs in passes. One pass sets the system up from the seed,
// runs a fixed number of units (training steps, requests or all-reduce
// steps) through public APIs, checks every unit's output, and returns the
// modeled results together with the host times the benchmark measured
// around its own calls. A traced pass additionally attaches recorders and
// returns per-layer metrics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/causal.hpp"

namespace teco::obs {
class MetricsRegistry;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Measured on the host clock. Every other metric is a count or a modeled
  /// value and must repeat exactly for a seed.
  bool host = false;
};
using Metrics = std::map<std::string, Metric>;

struct PassResult {
  std::size_t units = 0;   ///< Units run in the timed part of the pass.
  std::size_t failed = 0;  ///< Units whose output check failed.
  double setup_s = 0.0;    ///< Host time to build inputs and the system.
  double run_s = 0.0;      ///< Host time of the timed units.
  /// Host time per unit; a workload that runs all units in one call
  /// records that call's time divided evenly.
  std::vector<double> unit_s;
  Metrics modeled;  ///< Deterministic sim_* end-to-end metrics.
  Metrics layers;   ///< Per-layer metrics, traced passes only.
  /// Sample counts behind the modeled quantiles (name -> count).
  std::map<std::string, double> samples;
  /// Exact text of every modeled metric and simulator counter; two passes
  /// of one seed must produce the same string, traced or not.
  std::string fingerprint;
  std::uint64_t input_digest = 0;  ///< Hash of the generated inputs.
  std::vector<std::string> errors;
};

PassResult run_train_dba(std::uint64_t seed, bool traced);
PassResult run_serve_paging(std::uint64_t seed, bool traced);
PassResult run_fabric_reduce(std::uint64_t seed, bool traced);

/// The committed-baseline configurations, run through the workloads' code
/// paths; each returns the registry as (name, "%.12g" text) pairs, the
/// formatting the baselines were written with.
std::map<std::string, std::string> crosscheck_serve_slo();
std::map<std::string, std::string> crosscheck_fabric_allreduce();

// --- Helpers shared by the workloads ----------------------------------------

/// FNV-1a over raw bytes, for input digests.
class Digest {
 public:
  void add(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  template <class T>
  void add_values(const std::vector<T>& v) {
    add(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// A well-mixed sub-seed for stream `k` of `seed`.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k);

/// Every registry sample whose name does not start with "obs." as
/// "name=value;" text with all digits. The obs.* namespace holds the
/// causal attribution that only traced passes record.
std::string registry_fingerprint(const teco::obs::MetricsRegistry& reg);

/// "name=value;" text of metrics with all digits.
std::string metrics_fingerprint(const Metrics& m);

/// Every registry sample as name -> value.
std::map<std::string, double> registry_values(
    const teco::obs::MetricsRegistry& reg);

inline double value_or_zero(const std::map<std::string, double>& values,
                            const std::string& name) {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

/// Adds obs.critpath.<category>_pct, the share of the critical path, for
/// each named causal category. `by_category_s` holds seconds per category;
/// a workload names every category its critical path can contain, so the
/// metric set does not depend on the seed.
void add_critpath_shares(
    Metrics& layers, const std::vector<double>& by_category_s,
    std::initializer_list<teco::obs::causal::Category> cats);

/// The q-quantile of `v`, interpolating linearly between order statistics.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

inline constexpr double kMiB = 1024.0 * 1024.0;

}  // namespace perfbench
