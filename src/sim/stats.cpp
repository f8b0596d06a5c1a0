#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

namespace teco::sim {

void RunningStat::add(double x) {
  ++n_;
  const double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStat::merge(const RunningStat& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(o.n_);
  const double delta = o.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += o.m2_ + delta * delta * na * nb / nt;
  n_ += o.n_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto i = static_cast<std::size_t>((x - lo_) / width_);
  if (i >= counts_.size()) i = counts_.size() - 1;  // FP edge at hi_.
  ++counts_[i];
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}
double Histogram::bin_hi(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

double Histogram::fraction(std::size_t i) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_.at(i)) / static_cast<double>(total_);
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  // Walk the cumulative mass: underflow (at lo_), the bins, overflow (at
  // hi_). The interpolation assumes samples spread uniformly in a bin.
  double cum = static_cast<double>(underflow_);
  if (target <= cum) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double c = static_cast<double>(counts_[i]);
    if (c > 0.0 && target <= cum + c) {
      return bin_lo(i) + width_ * (target - cum) / c;
    }
    cum += c;
  }
  return hi_;
}

}  // namespace teco::sim
