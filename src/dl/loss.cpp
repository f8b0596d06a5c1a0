#include "dl/loss.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace teco::dl {

double mse_head(const Tensor& out, const Tensor& targets, Tensor& dout) {
  assert(targets.rows() == out.rows() && targets.cols() == out.cols());
  const double inv = 1.0 / static_cast<double>(out.size());
  double loss = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float d = out.flat()[i] - targets.flat()[i];
    loss += static_cast<double>(d) * d * inv;
    dout.flat()[i] = static_cast<float>(2.0 * inv) * d;
  }
  return loss;
}

double softmax_xent_row(const float* logits, std::size_t n, std::size_t label,
                        double scale, float* dlogits) {
  assert(label < n);
  // Numerically stable softmax.
  float mx = logits[0];
  for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, logits[j]);
  double z = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    z += std::exp(static_cast<double>(logits[j] - mx));
  }
  double loss = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double p = std::exp(static_cast<double>(logits[j] - mx)) / z;
    dlogits[j] = static_cast<float>((p - (j == label ? 1.0 : 0.0)) * scale);
    if (j == label) loss = -std::log(std::max(p, 1e-12)) * scale;
  }
  return loss;
}

double softmax_xent_head(const Tensor& out, const Tensor& targets,
                         Tensor& dout) {
  assert(targets.rows() == out.rows() && targets.cols() == 1);
  const double inv = 1.0 / static_cast<double>(out.rows());
  double loss = 0.0;
  for (std::size_t i = 0; i < out.rows(); ++i) {
    loss += softmax_xent_row(out.data() + i * out.cols(), out.cols(),
                             static_cast<std::size_t>(targets.at(i, 0)), inv,
                             dout.data() + i * out.cols());
  }
  return loss;
}

std::size_t argmax_row(const Tensor& t, std::size_t r) {
  std::size_t best = 0;
  for (std::size_t j = 1; j < t.cols(); ++j) {
    if (t.at(r, j) > t.at(r, best)) best = j;
  }
  return best;
}

float argmax_accuracy(const Tensor& out, const Tensor& targets) {
  if (out.rows() == 0) return 0.0f;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < out.rows(); ++i) {
    if (argmax_row(out, i) == static_cast<std::size_t>(targets.at(i, 0))) {
      ++correct;
    }
  }
  return static_cast<float>(correct) / static_cast<float>(out.rows());
}

}  // namespace teco::dl
