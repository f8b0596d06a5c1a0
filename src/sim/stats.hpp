// Streaming statistics used by every measurement path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace teco::sim {

/// Welford-style running mean/variance with min/max.
class RunningStat {
 public:
  void add(double x);
  void merge(const RunningStat& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width histogram over [lo, hi); out-of-range samples land in
/// saturating under/overflow bins so totals always reconcile.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  /// Fraction of all samples (incl. under/overflow) in bin i.
  double fraction(std::size_t i) const;

  /// The q-quantile (q in [0, 1]) with linear interpolation inside the
  /// containing bin. Under/overflow mass is treated as concentrated at lo
  /// and hi respectively — the histogram cannot resolve beyond its range,
  /// so the bound is the honest answer. Returns 0.0 for an empty
  /// histogram. q is clamped to [0, 1].
  double quantile(double q) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

}  // namespace teco::sim
