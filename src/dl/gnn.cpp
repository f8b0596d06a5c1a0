#include "dl/gnn.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dl/adam.hpp"
#include "dl/loss.hpp"

namespace teco::dl {

SyntheticGraph make_synthetic_graph(const GraphConfig& cfg) {
  sim::Rng rng(cfg.seed);
  SyntheticGraph g;
  g.n_nodes = cfg.n_nodes;
  g.n_features = cfg.n_features;
  g.n_classes = cfg.n_classes;
  g.labels.resize(cfg.n_nodes);
  g.train_mask.resize(cfg.n_nodes);
  g.features = Tensor(cfg.n_nodes, cfg.n_features);

  // Class-dependent feature centers + noise.
  std::vector<std::vector<float>> centers(cfg.n_classes,
                                          std::vector<float>(cfg.n_features));
  for (auto& c : centers) {
    for (auto& v : c) v = static_cast<float>(rng.next_gaussian());
  }
  for (std::size_t i = 0; i < cfg.n_nodes; ++i) {
    g.labels[i] = static_cast<std::uint32_t>(rng.next_below(cfg.n_classes));
    g.train_mask[i] = rng.next_bool(cfg.train_fraction);
    for (std::size_t d = 0; d < cfg.n_features; ++d) {
      g.features.at(i, d) =
          centers[g.labels[i]][d] +
          static_cast<float>(rng.next_gaussian() * cfg.feature_noise);
    }
  }

  // Adjacency with controlled homophily, plus self-loops; symmetrically
  // normalized: A_hat = D^-1/2 (A + I) D^-1/2.
  Tensor adj(cfg.n_nodes, cfg.n_nodes);
  for (std::size_t i = 0; i < cfg.n_nodes; ++i) adj.at(i, i) = 1.0f;
  for (std::size_t i = 0; i < cfg.n_nodes; ++i) {
    for (std::size_t j = i + 1; j < cfg.n_nodes; ++j) {
      const bool same = g.labels[i] == g.labels[j];
      const double p = cfg.edge_prob *
                       (same ? cfg.homophily : 1.0 - cfg.homophily) * 2.0;
      if (rng.next_bool(p)) {
        adj.at(i, j) = 1.0f;
        adj.at(j, i) = 1.0f;
      }
    }
  }
  std::vector<float> inv_sqrt_deg(cfg.n_nodes);
  for (std::size_t i = 0; i < cfg.n_nodes; ++i) {
    float deg = 0.0f;
    for (std::size_t j = 0; j < cfg.n_nodes; ++j) deg += adj.at(i, j);
    inv_sqrt_deg[i] = 1.0f / std::sqrt(deg);
  }
  g.norm_adj = Tensor(cfg.n_nodes, cfg.n_nodes);
  for (std::size_t i = 0; i < cfg.n_nodes; ++i) {
    for (std::size_t j = 0; j < cfg.n_nodes; ++j) {
      g.norm_adj.at(i, j) = adj.at(i, j) * inv_sqrt_deg[i] * inv_sqrt_deg[j];
    }
  }
  return g;
}

Gcnii::Gcnii(GcniiConfig cfg, std::size_t in_features, std::size_t n_classes)
    : cfg_(cfg), in_features_(in_features), n_classes_(n_classes) {
  if (cfg_.n_layers == 0 || cfg_.hidden == 0) {
    throw std::invalid_argument("GCNII dims must be nonzero");
  }
  const std::size_t h = cfg_.hidden;
  std::size_t off = 0;
  w_in_off_ = off;
  off += h * in_features_;
  for (std::size_t l = 0; l < cfg_.n_layers; ++l) {
    w_off_.push_back(off);
    off += h * h;
  }
  w_out_off_ = off;
  off += n_classes_ * h;
  params_.resize(off);
  grads_.resize(off, 0.0f);

  sim::Rng rng(cfg_.seed);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    params_[i] = static_cast<float>(rng.next_gaussian()) * cfg_.init_stddev /
                 std::sqrt(static_cast<float>(h));
  }
  pre_.resize(cfg_.n_layers);
  h_.resize(cfg_.n_layers);
  p_.resize(cfg_.n_layers);
}

float Gcnii::beta(std::size_t layer) const {
  return std::log(cfg_.lambda / static_cast<float>(layer + 1) + 1.0f);
}

const Tensor& Gcnii::forward(const SyntheticGraph& g) {
  const std::size_t n = g.n_nodes, h = cfg_.hidden;
  const float* w = params_.data();
  h0_ = Tensor(n, h);
  gemm(Op::kN, Op::kT, n, h, in_features_, g.features.data(), w + w_in_off_,
       h0_.data());
  for (auto& v : h0_.flat()) v = std::max(v, 0.0f);

  const Tensor* cur = &h0_;
  for (std::size_t l = 0; l < cfg_.n_layers; ++l) {
    const float a = cfg_.alpha, b = beta(l);
    // The adjacency is sparse; gemm skips its zeros.
    p_[l] = Tensor(n, h);
    gemm(Op::kN, Op::kN, n, h, n, g.norm_adj.data(), cur->data(),
         p_[l].data());
    for (std::size_t i = 0; i < n * h; ++i) {
      p_[l].flat()[i] = (1.0f - a) * p_[l].flat()[i] + a * h0_.flat()[i];
    }
    // M = (1-b) I + b W : pre = (1-b) P + b (P W^T).
    pre_[l] = Tensor(n, h);
    gemm(Op::kN, Op::kT, n, h, h, p_[l].data(), w + w_off_[l],
         pre_[l].data());
    for (std::size_t i = 0; i < n * h; ++i) {
      pre_[l].flat()[i] = (1.0f - b) * p_[l].flat()[i] +
                          b * pre_[l].flat()[i];
    }
    h_[l] = pre_[l];
    for (auto& v : h_[l].flat()) v = std::max(v, 0.0f);
    cur = &h_[l];
  }

  logits_ = Tensor(n, n_classes_);
  gemm(Op::kN, Op::kT, n, n_classes_, h, cur->data(), w + w_out_off_,
       logits_.data());
  return logits_;
}

float Gcnii::backward(const SyntheticGraph& g) {
  std::fill(grads_.begin(), grads_.end(), 0.0f);
  const std::size_t n = g.n_nodes, h = cfg_.hidden, c = n_classes_;
  const float* w = params_.data();

  std::size_t n_train = 0;
  for (const bool m : g.train_mask) n_train += m ? 1 : 0;
  const double inv = n_train > 0 ? 1.0 / static_cast<double>(n_train) : 0.0;

  // Softmax CE over train nodes only; other rows of dlogits stay zero.
  Tensor dlogits(n, c);
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!g.train_mask[i]) continue;
    loss += softmax_xent_row(logits_.data() + i * c, c, g.labels[i], inv,
                             dlogits.data() + i * c);
  }

  // Readout: logits = H_L W_out^T.
  const Tensor& hl = cfg_.n_layers > 0 ? h_.back() : h0_;
  gemm(Op::kT, Op::kN, c, h, n, dlogits.data(), hl.data(),
       grads_.data() + w_out_off_);
  Tensor dh(n, h);
  gemm(Op::kN, Op::kN, n, h, c, dlogits.data(), w + w_out_off_, dh.data());

  // Layers in reverse. dH0 accumulates the initial-residual contributions.
  Tensor dh0(n, h);
  Tensor bdpre(n, h), dp(n, h), tmp(n, h);
  for (std::size_t l = cfg_.n_layers; l-- > 0;) {
    const float a = cfg_.alpha, b = beta(l);
    // ReLU, then pre = (1-b) P + b P W^T:
    //   dW += (b dpre)^T P ;  dP = (1-b) dpre + (b dpre) W.
    for (std::size_t i = 0; i < n * h; ++i) {
      const float dpre = pre_[l].flat()[i] > 0.0f ? dh.flat()[i] : 0.0f;
      bdpre.flat()[i] = b * dpre;
      dp.flat()[i] = (1.0f - b) * dpre;
    }
    gemm(Op::kT, Op::kN, h, h, n, bdpre.data(), p_[l].data(),
         grads_.data() + w_off_[l]);
    gemm(Op::kN, Op::kN, n, h, h, bdpre.data(), w + w_off_[l], dp.data());
    // P = (1-a) A_hat H_prev + a H0 ; A_hat symmetric.
    tmp.fill(0.0f);
    gemm(Op::kN, Op::kN, n, h, n, g.norm_adj.data(), dp.data(), tmp.data());
    for (std::size_t i = 0; i < n * h; ++i) {
      dh.flat()[i] = (1.0f - a) * tmp.flat()[i];
      dh0.flat()[i] += a * dp.flat()[i];
    }
  }
  // dh now holds the gradient w.r.t. H0 via the layer chain; add the
  // accumulated initial-residual term.
  for (std::size_t i = 0; i < n * h; ++i) dh.flat()[i] += dh0.flat()[i];

  // H0 = relu(X W_in^T).
  for (std::size_t i = 0; i < n * h; ++i) {
    if (h0_.flat()[i] <= 0.0f) dh.flat()[i] = 0.0f;
  }
  gemm(Op::kT, Op::kN, h, in_features_, n, dh.data(), g.features.data(),
       grads_.data() + w_in_off_);
  return static_cast<float>(loss);
}

float Gcnii::accuracy(const SyntheticGraph& g, bool on_train_mask) const {
  std::size_t total = 0, correct = 0;
  for (std::size_t i = 0; i < g.n_nodes; ++i) {
    if (g.train_mask[i] != on_train_mask) continue;
    ++total;
    if (argmax_row(logits_, i) == g.labels[i]) ++correct;
  }
  return total == 0 ? 0.0f
                    : static_cast<float>(correct) / static_cast<float>(total);
}

float train_gcnii_accuracy(const GraphConfig& gcfg, const GcniiConfig& mcfg,
                           std::size_t steps, float lr) {
  const auto graph = make_synthetic_graph(gcfg);
  Gcnii net(mcfg, graph.n_features, graph.n_classes);
  AdamConfig acfg;
  acfg.lr = lr;
  Adam adam(net.n_params(), acfg);
  std::vector<float> clipped(net.n_params());
  for (std::size_t s = 0; s < steps; ++s) {
    net.forward(graph);
    net.backward(graph);
    clipped.assign(net.grads().begin(), net.grads().end());
    adam.clip_gradients(clipped);
    adam.step(net.params(), clipped);
  }
  net.forward(graph);
  return net.accuracy(graph, /*on_train_mask=*/false);
}

}  // namespace teco::dl
