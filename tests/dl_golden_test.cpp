// Bit-identity goldens for teco::dl.
//
// Fig. 2's byte-change statistics, Table V and the DBA splice read the raw
// bytes of parameters and gradients, so a kernel change that moves any float
// by one ulp changes the paper's numbers. Each case trains a model for 20
// Adam steps and hashes (FNV-1a over the raw bytes) every forward output,
// loss and accuracy, every gradient buffer, and the final parameters. The
// pinned digests come from the dense loops that preceded dl::gemm; a change
// that is meant to move the numbers must re-pin them and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "dl/adam.hpp"
#include "dl/attention.hpp"
#include "dl/gnn.hpp"
#include "dl/mlp.hpp"
#include "sim/rng.hpp"

namespace teco::dl {
namespace {

constexpr std::size_t kSteps = 20;

class Fnv1a {
 public:
  void add(std::span<const float> v) {
    const auto* p = reinterpret_cast<const unsigned char*>(v.data());
    for (std::size_t i = 0; i < v.size_bytes(); ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ull;
    }
  }
  void add(float v) { add(std::span<const float>(&v, 1)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

struct Digests {
  std::uint64_t out, grads, params;
};

/// Runs kSteps of forward / backward / clipped Adam. `step` does one
/// forward + backward and feeds outputs, loss and accuracy to `out`.
template <class Step>
Digests train(std::span<float> params, std::span<const float> grads,
              Step step) {
  AdamConfig acfg;
  acfg.lr = 1e-2f;
  Adam adam(params.size(), acfg);
  std::vector<float> clipped(params.size());
  Fnv1a out, g;
  for (std::size_t s = 0; s < kSteps; ++s) {
    step(out);
    g.add(grads);
    clipped.assign(grads.begin(), grads.end());
    adam.clip_gradients(clipped);
    adam.step(params, clipped);
  }
  Fnv1a p;
  p.add(std::span<const float>(params));
  return {out.value(), g.value(), p.value()};
}

Digests train_model(ModelBase& net, const Tensor& x, const Tensor& y) {
  return train(net.params(), net.grads(), [&](Fnv1a& out) {
    out.add(net.forward(x).flat());
    out.add(net.backward(y));
    out.add(net.accuracy(y));
  });
}

Tensor class_labels(std::size_t rows, std::size_t classes, sim::Rng& rng) {
  Tensor y(rows, 1);
  for (std::size_t i = 0; i < rows; ++i) {
    y.at(i, 0) = static_cast<float>(rng.next_below(classes));
  }
  return y;
}

void expect_digests(const Digests& got, const Digests& want) {
  EXPECT_EQ(got.out, want.out) << std::hex << "out 0x" << got.out;
  EXPECT_EQ(got.grads, want.grads) << std::hex << "grads 0x" << got.grads;
  EXPECT_EQ(got.params, want.params) << std::hex << "params 0x" << got.params;
}

TEST(DlGolden, MlpRegression) {
  MlpConfig cfg;
  cfg.layer_sizes = {12, 24, 16, 3};
  cfg.seed = 5;
  Mlp net(cfg);
  sim::Rng rng(11);
  const Tensor x = Tensor::randn(8, 12, rng, 1.0f);
  const Tensor y = Tensor::randn(8, 3, rng, 1.0f);
  expect_digests(train_model(net, x, y),
                 {0x3f7931e534caaafdull, 0xd1e451d3515017d0ull,
                  0x808eedee0819188full});
}

TEST(DlGolden, MlpClassification) {
  MlpConfig cfg;
  cfg.layer_sizes = {10, 20, 5};
  cfg.output = OutputKind::kClassification;
  cfg.seed = 6;
  Mlp net(cfg);
  sim::Rng rng(12);
  const Tensor x = Tensor::randn(9, 10, rng, 1.0f);
  const Tensor y = class_labels(9, 5, rng);
  expect_digests(train_model(net, x, y),
                 {0xcfec2f81cbaecf39ull, 0x27b4ed9a34527066ull,
                  0xd0f9e8e314b07872ull});
}

TEST(DlGolden, TransformerRegression) {
  TransformerConfig cfg;
  cfg.seq_len = 3;
  cfg.d_model = 5;
  cfg.d_ff = 11;
  cfg.out_dim = 3;
  cfg.seed = 7;
  TinyTransformer net(cfg);
  sim::Rng rng(13);
  const Tensor x = Tensor::randn(6, 15, rng, 1.0f);
  const Tensor y = Tensor::randn(6, 3, rng, 1.0f);
  expect_digests(train_model(net, x, y),
                 {0x15c7fa6f23d78fe8ull, 0xdf9215f56e527ec7ull,
                  0x3e7eba740963a225ull});
}

TEST(DlGolden, TransformerClassification) {
  TransformerConfig cfg;
  cfg.seq_len = 4;
  cfg.d_model = 6;
  cfg.d_ff = 9;
  cfg.out_dim = 4;
  cfg.output = OutputKind::kClassification;
  cfg.seed = 8;
  TinyTransformer net(cfg);
  sim::Rng rng(14);
  const Tensor x = Tensor::randn(5, 24, rng, 1.0f);
  const Tensor y = class_labels(5, 4, rng);
  expect_digests(train_model(net, x, y),
                 {0xb395e554cbac0c77ull, 0xc0b9f79322865166ull,
                  0x1dd3efbf189afa23ull});
}

TEST(DlGolden, Gcnii) {
  GraphConfig gcfg;
  gcfg.n_nodes = 60;
  gcfg.n_features = 7;
  gcfg.n_classes = 4;
  gcfg.edge_prob = 0.1;
  const auto graph = make_synthetic_graph(gcfg);
  GcniiConfig mcfg;
  mcfg.n_layers = 4;
  mcfg.hidden = 6;
  Gcnii net(mcfg, graph.n_features, graph.n_classes);
  const Digests got = train(net.params(), net.grads(), [&](Fnv1a& out) {
    out.add(net.forward(graph).flat());
    out.add(net.backward(graph));
    out.add(net.accuracy(graph, /*on_train_mask=*/true));
    out.add(net.accuracy(graph, /*on_train_mask=*/false));
  });
  expect_digests(got, {0x5e8b710e1609638full, 0x7a56787b8fee1e92ull,
                       0x8e1951fdad12e4a5ull});
}

}  // namespace
}  // namespace teco::dl
