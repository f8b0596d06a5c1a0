// A tiny single-head transformer block with manual backpropagation.
//
// The paper fine-tunes transformers; this model gives the numeric
// experiments a transformer-shaped proxy (softmax attention + residuals +
// MLP) whose gradients are verified against finite differences. Inputs are
// flat rows of seq_len * d_model features, reshaped internally:
//
//   X[T,D] -> Q,K,V = X Wq|Wk|Wv
//   P = softmax(Q K^T / sqrt(D));  H = P V;  R1 = X + H Wo
//   Z = tanh(R1 W1 + b1);          R2 = R1 + (Z W2 + b2)
//   out = mean_t(R2) Wr + br       (regression or softmax-CE readout)
//
// Parameters and gradients live in one contiguous FP32 buffer, like Mlp.
#pragma once

#include <cstdint>
#include <vector>

#include "dl/mlp.hpp"  // OutputKind.
#include "dl/model_base.hpp"

namespace teco::dl {

struct TransformerConfig {
  std::size_t seq_len = 4;
  std::size_t d_model = 8;   ///< Must give seq_len * d_model = input dim.
  std::size_t d_ff = 32;
  std::size_t out_dim = 4;   ///< Output dim or class count.
  OutputKind output = OutputKind::kRegression;
  float init_stddev = 0.5f;
  std::uint64_t seed = 7;
};

class TinyTransformer final : public ModelBase {
 public:
  explicit TinyTransformer(TransformerConfig cfg);

  const Tensor& forward(const Tensor& x) override;
  float backward(const Tensor& targets) override;
  float accuracy(const Tensor& targets) const override;

  std::span<float> params() override { return params_; }
  std::span<const float> grads() const override { return grads_; }
  void load_params(std::span<const float> p) override;
  std::size_t n_params() const override { return params_.size(); }
  const TransformerConfig& config() const { return cfg_; }

 private:
  // Parameter-buffer offsets (row-major blocks).
  struct Layout {
    std::size_t wq, wk, wv, wo;      ///< [D, D] each.
    std::size_t w1, b1;              ///< [F, D], [F].
    std::size_t w2, b2;              ///< [D, F], [D].
    std::size_t wr, br;              ///< [O, D], [O].
    std::size_t total;
  };

  std::span<const float> P(std::size_t off, std::size_t count) const {
    return std::span<const float>(params_).subspan(off, count);
  }

  TransformerConfig cfg_;
  Layout lay_{};
  std::vector<float> params_;
  std::vector<float> grads_;

  // Forward caches (rows = B * T unless noted).
  std::size_t batch_ = 0;
  Tensor x_;        ///< [B*T, D] reshaped input.
  Tensor q_, k_, v_;
  Tensor p_;        ///< [B*T, T] attention rows per sample.
  Tensor h_;        ///< [B*T, D] attention output.
  Tensor r1_;       ///< [B*T, D].
  Tensor z_;        ///< [B*T, F].
  Tensor r2_;       ///< [B*T, D].
  Tensor pooled_;   ///< [B, D].
  Tensor out_;      ///< [B, O].
};

}  // namespace teco::dl
