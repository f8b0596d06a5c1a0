#include "dl/attention.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dl/loss.hpp"

namespace teco::dl {

TinyTransformer::TinyTransformer(TransformerConfig cfg) : cfg_(cfg) {
  const std::size_t d = cfg_.d_model, f = cfg_.d_ff, o = cfg_.out_dim;
  if (d == 0 || f == 0 || o == 0 || cfg_.seq_len == 0) {
    throw std::invalid_argument("transformer dims must be nonzero");
  }
  std::size_t off = 0;
  auto take = [&](std::size_t count) {
    const std::size_t at = off;
    off += count;
    return at;
  };
  lay_.wq = take(d * d);
  lay_.wk = take(d * d);
  lay_.wv = take(d * d);
  lay_.wo = take(d * d);
  lay_.w1 = take(f * d);
  lay_.b1 = take(f);
  lay_.w2 = take(d * f);
  lay_.b2 = take(d);
  lay_.wr = take(o * d);
  lay_.br = take(o);
  lay_.total = off;

  params_.resize(lay_.total);
  grads_.resize(lay_.total, 0.0f);
  sim::Rng rng(cfg_.seed);
  auto init_block = [&](std::size_t at, std::size_t count, std::size_t fanin) {
    const float scale =
        cfg_.init_stddev / std::sqrt(static_cast<float>(fanin));
    for (std::size_t i = 0; i < count; ++i) {
      params_[at + i] = static_cast<float>(rng.next_gaussian()) * scale;
    }
  };
  init_block(lay_.wq, d * d, d);
  init_block(lay_.wk, d * d, d);
  init_block(lay_.wv, d * d, d);
  init_block(lay_.wo, d * d, d);
  init_block(lay_.w1, f * d, d);
  init_block(lay_.w2, d * f, f);
  init_block(lay_.wr, o * d, d);
  // Biases start at zero (resize already did).
}

const Tensor& TinyTransformer::forward(const Tensor& x) {
  const std::size_t t = cfg_.seq_len, d = cfg_.d_model, f = cfg_.d_ff,
                    o = cfg_.out_dim;
  if (x.cols() != t * d) {
    throw std::invalid_argument("input dim must equal seq_len * d_model");
  }
  batch_ = x.rows();
  const std::size_t rows = batch_ * t;
  x_ = Tensor(rows, d);  // Same bytes: [B, T*D] read as [B*T, D].
  std::copy(x.flat().begin(), x.flat().end(), x_.data());
  q_ = Tensor(rows, d);
  k_ = Tensor(rows, d);
  v_ = Tensor(rows, d);
  p_ = Tensor(rows, t);
  h_ = Tensor(rows, d);
  r1_ = Tensor(rows, d);
  z_ = Tensor(rows, f);
  r2_ = Tensor(rows, d);
  pooled_ = Tensor(batch_, d);
  out_ = Tensor(batch_, o);

  // Weights are shared across samples, so every projection runs once over
  // all B*T rows; only the T x T attention core is per sample.
  const float* w = params_.data();
  gemm(Op::kN, Op::kT, rows, d, d, x_.data(), w + lay_.wq, q_.data());
  gemm(Op::kN, Op::kT, rows, d, d, x_.data(), w + lay_.wk, k_.data());
  gemm(Op::kN, Op::kT, rows, d, d, x_.data(), w + lay_.wv, v_.data());

  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(d));
  for (std::size_t b = 0; b < batch_; ++b) {
    const float* qb = q_.data() + b * t * d;
    const float* kb = k_.data() + b * t * d;
    const float* vb = v_.data() + b * t * d;
    // P = softmax(Q K^T / sqrt(d)), row per query position.
    float* pb = p_.data() + b * t * t;
    gemm(Op::kN, Op::kT, t, t, d, qb, kb, pb);
    for (std::size_t i = 0; i < t; ++i) {
      float* row = pb + i * t;
      float mx = -1e30f;
      for (std::size_t j = 0; j < t; ++j) {
        row[j] *= inv_sqrt_d;
        mx = std::max(mx, row[j]);
      }
      float zsum = 0.0f;
      for (std::size_t j = 0; j < t; ++j) {
        row[j] = std::exp(row[j] - mx);
        zsum += row[j];
      }
      for (std::size_t j = 0; j < t; ++j) row[j] /= zsum;
    }
    // H = P V.
    gemm(Op::kN, Op::kN, t, d, t, pb, vb, h_.data() + b * t * d);
  }

  // R1 = X + H Wo.
  gemm(Op::kN, Op::kT, rows, d, d, h_.data(), w + lay_.wo, r1_.data());
  for (std::size_t i = 0; i < rows * d; ++i) r1_.flat()[i] += x_.flat()[i];

  // MLP with residual.
  fill_rows(z_, P(lay_.b1, f));
  gemm(Op::kN, Op::kT, rows, f, d, r1_.data(), w + lay_.w1, z_.data());
  dl::tanh(z_.flat());
  fill_rows(r2_, P(lay_.b2, d));
  gemm(Op::kN, Op::kT, rows, d, f, z_.data(), w + lay_.w2, r2_.data());
  for (std::size_t i = 0; i < rows * d; ++i) r2_.flat()[i] += r1_.flat()[i];

  // Mean-pool (ones^T R2 per sample) + readout.
  const std::vector<float> ones(t, 1.0f);
  for (std::size_t b = 0; b < batch_; ++b) {
    gemm(Op::kN, Op::kN, 1, d, t, ones.data(), r2_.data() + b * t * d,
         pooled_.data() + b * d);
  }
  for (auto& v : pooled_.flat()) v /= static_cast<float>(t);
  fill_rows(out_, P(lay_.br, o));
  gemm(Op::kN, Op::kT, batch_, o, d, pooled_.data(), w + lay_.wr,
       out_.data());
  return out_;
}

float TinyTransformer::backward(const Tensor& targets) {
  std::fill(grads_.begin(), grads_.end(), 0.0f);
  const std::size_t t = cfg_.seq_len, d = cfg_.d_model, f = cfg_.d_ff,
                    o = cfg_.out_dim, rows = batch_ * t;
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(d));
  const float* w = params_.data();
  float* g = grads_.data();
  // Bias gradients are column sums, ones^T dY.
  const std::vector<float> ones(rows, 1.0f);

  Tensor dout(batch_, o);
  const double loss = cfg_.output == OutputKind::kRegression
                          ? mse_head(out_, targets, dout)
                          : softmax_xent_head(out_, targets, dout);

  // Readout: out = pooled Wr^T + br.
  gemm(Op::kN, Op::kN, 1, o, batch_, ones.data(), dout.data(), g + lay_.br);
  gemm(Op::kT, Op::kN, o, d, batch_, dout.data(), pooled_.data(),
       g + lay_.wr);
  // dpooled / T spreads uniformly over a sample's positions (mean pool).
  Tensor dpooled(batch_, d);
  gemm(Op::kN, Op::kN, batch_, d, o, dout.data(), w + lay_.wr,
       dpooled.data());
  for (auto& v : dpooled.flat()) v /= static_cast<float>(t);
  Tensor dr2(rows, d);
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy_n(dpooled.data() + (r / t) * d, d, dr2.data() + r * d);
  }

  // MLP backward: R2 = R1 + (tanh(R1 W1 + b1) W2 + b2).
  Tensor dpre(rows, f);
  gemm(Op::kN, Op::kN, rows, f, d, dr2.data(), w + lay_.w2, dpre.data());
  for (std::size_t i = 0; i < rows * f; ++i) {
    const float zz = z_.flat()[i];
    dpre.flat()[i] *= 1.0f - zz * zz;
  }
  gemm(Op::kN, Op::kN, 1, d, rows, ones.data(), dr2.data(), g + lay_.b2);
  gemm(Op::kT, Op::kN, d, f, rows, dr2.data(), z_.data(), g + lay_.w2);
  gemm(Op::kN, Op::kN, 1, f, rows, ones.data(), dpre.data(), g + lay_.b1);
  gemm(Op::kT, Op::kN, f, d, rows, dpre.data(), r1_.data(), g + lay_.w1);
  Tensor dr1 = dr2;  // Residual path.
  gemm(Op::kN, Op::kN, rows, d, f, dpre.data(), w + lay_.w1, dr1.data());

  // Attention output: R1 = X + H Wo^T.
  gemm(Op::kT, Op::kN, d, d, rows, dr1.data(), h_.data(), g + lay_.wo);
  Tensor dh(rows, d);
  gemm(Op::kN, Op::kN, rows, d, d, dr1.data(), w + lay_.wo, dh.data());

  Tensor dp(rows, t), dq(rows, d), dk(rows, d), dv(rows, d);
  for (std::size_t b = 0; b < batch_; ++b) {
    const std::size_t at = b * t * d;
    const float* pb = p_.data() + b * t * t;
    float* dpb = dp.data() + b * t * t;
    // H = P V.
    gemm(Op::kN, Op::kT, t, t, d, dh.data() + at, v_.data() + at, dpb);
    gemm(Op::kT, Op::kN, t, d, t, pb, dh.data() + at, dv.data() + at);
    // Softmax rows: dS = P * (dP - sum(dP * P)), in place over dP.
    for (std::size_t i = 0; i < t; ++i) {
      float dot = 0.0f;
      gemm(Op::kN, Op::kT, 1, 1, t, dpb + i * t, pb + i * t, &dot);
      for (std::size_t j = 0; j < t; ++j) {
        dpb[i * t + j] = pb[i * t + j] * (dpb[i * t + j] - dot);
      }
    }
    // S = Q K^T / sqrt(d).
    gemm(Op::kN, Op::kN, t, d, t, dpb, k_.data() + at, dq.data() + at);
    gemm(Op::kT, Op::kN, t, d, t, dpb, q_.data() + at, dk.data() + at);
  }
  for (auto& v : dq.flat()) v *= inv_sqrt_d;
  for (auto& v : dk.flat()) v *= inv_sqrt_d;

  // Q|K|V = X Wq|Wk|Wv^T.
  gemm(Op::kT, Op::kN, d, d, rows, dq.data(), x_.data(), g + lay_.wq);
  gemm(Op::kT, Op::kN, d, d, rows, dk.data(), x_.data(), g + lay_.wk);
  gemm(Op::kT, Op::kN, d, d, rows, dv.data(), x_.data(), g + lay_.wv);
  return static_cast<float>(loss);
}

float TinyTransformer::accuracy(const Tensor& targets) const {
  if (cfg_.output != OutputKind::kClassification) return 0.0f;
  return argmax_accuracy(out_, targets);
}

void TinyTransformer::load_params(std::span<const float> p) {
  if (p.size() != params_.size()) {
    throw std::invalid_argument("parameter size mismatch");
  }
  std::copy(p.begin(), p.end(), params_.begin());
}

}  // namespace teco::dl
