#include "dl/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dl/loss.hpp"

namespace teco::dl {

Mlp::Mlp(MlpConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.layer_sizes.size() < 2) {
    throw std::invalid_argument("MLP needs at least input and output sizes");
  }
  std::size_t total = 0;
  for (std::size_t l = 0; l + 1 < cfg_.layer_sizes.size(); ++l) {
    const std::size_t in = cfg_.layer_sizes[l];
    const std::size_t out = cfg_.layer_sizes[l + 1];
    layers_.push_back(LayerView{total, total + in * out, in, out});
    total += in * out + out;
  }
  params_.resize(total);
  grads_.resize(total, 0.0f);

  sim::Rng rng(cfg_.seed);
  for (const auto& l : layers_) {
    // Xavier-style scale keeps tanh activations in range at init.
    const float scale =
        cfg_.init_stddev / std::sqrt(static_cast<float>(l.in));
    for (std::size_t i = 0; i < l.in * l.out; ++i) {
      params_[l.w_off + i] = static_cast<float>(rng.next_gaussian()) * scale;
    }
    for (std::size_t i = 0; i < l.out; ++i) params_[l.b_off + i] = 0.0f;
  }
  pre_act_.resize(layers_.size());
  post_act_.resize(layers_.size());
}

const Tensor& Mlp::forward(const Tensor& x) {
  input_ = x;
  const Tensor* cur = &input_;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const auto& lv = layers_[l];
    pre_act_[l] = Tensor(cur->rows(), lv.out);
    fill_rows(pre_act_[l],
              std::span<const float>(params_).subspan(lv.b_off, lv.out));
    gemm(Op::kN, Op::kT, cur->rows(), lv.out, lv.in, cur->data(),
         params_.data() + lv.w_off, pre_act_[l].data());
    post_act_[l] = pre_act_[l];
    if (l + 1 < layers_.size()) dl::tanh(post_act_[l].flat());
    cur = &post_act_[l];
  }
  return post_act_.back();
}

float Mlp::backward(const Tensor& targets) {
  std::fill(grads_.begin(), grads_.end(), 0.0f);
  const Tensor& out = post_act_.back();
  Tensor grad(out.rows(), out.cols());
  const double loss = cfg_.output == OutputKind::kRegression
                          ? mse_head(out, targets, grad)
                          : softmax_xent_head(out, targets, grad);

  // Backprop through the stack: db += colsum(grad), dW += grad^T a_in,
  // da_in = grad W.
  const std::size_t b = out.rows();
  const std::vector<float> ones(b, 1.0f);
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const auto& lv = layers_[li];
    const Tensor& act_in = li == 0 ? input_ : post_act_[li - 1];
    gemm(Op::kN, Op::kN, 1, lv.out, b, ones.data(), grad.data(),
         grads_.data() + lv.b_off);
    gemm(Op::kT, Op::kN, lv.out, lv.in, b, grad.data(), act_in.data(),
         grads_.data() + lv.w_off);
    if (li == 0) break;
    Tensor dx(b, lv.in);
    gemm(Op::kN, Op::kN, b, lv.in, lv.out, grad.data(),
         params_.data() + lv.w_off, dx.data());
    // dtanh(z) = 1 - tanh(z)^2, and post_act_ caches tanh(z).
    for (std::size_t i = 0; i < dx.size(); ++i) {
      const float t = act_in.flat()[i];
      dx.flat()[i] *= 1.0f - t * t;
    }
    grad = std::move(dx);
  }
  return static_cast<float>(loss);
}

float Mlp::accuracy(const Tensor& targets) const {
  if (cfg_.output != OutputKind::kClassification) return 0.0f;
  return argmax_accuracy(post_act_.back(), targets);
}

void Mlp::load_params(std::span<const float> p) {
  if (p.size() != params_.size()) {
    throw std::invalid_argument("parameter size mismatch");
  }
  std::copy(p.begin(), p.end(), params_.begin());
}

}  // namespace teco::dl
