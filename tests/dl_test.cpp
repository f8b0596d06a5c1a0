// Numeric tests: tensors, backprop, Adam, byte stats, DBA training harness.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "dl/adam.hpp"
#include "dl/byte_stats.hpp"
#include "dl/dba_training.hpp"
#include "dl/mlp.hpp"
#include "dl/model_zoo.hpp"
#include "dl/synthetic_data.hpp"
#include "dl/tensor.hpp"

namespace teco::dl {
namespace {

TEST(Tensor, BasicAccess) {
  Tensor t(2, 3);
  t.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
  EXPECT_EQ(t.size(), 6u);
  t.fill(1.0f);
  for (const float v : t.flat()) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(Tensor, RandnMoments) {
  sim::Rng rng(1);
  const Tensor t = Tensor::randn(100, 100, rng, 2.0f);
  double sum = 0.0, sq = 0.0;
  for (const float v : t.flat()) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  const double mean = sum / t.size();
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq / t.size() - mean * mean), 2.0, 0.05);
}

TEST(Linear, ForwardMatchesHandComputed) {
  // A linear layer as Mlp runs it: bias preload, then out += x W^T.
  Tensor x(1, 2);
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = 2.0f;
  const std::vector<float> w = {3.0f, 4.0f, 5.0f, 6.0f};  // [2,2] rows.
  const std::vector<float> b = {0.5f, -0.5f};
  Tensor out(1, 2);
  fill_rows(out, b);
  gemm(Op::kN, Op::kT, 1, 2, 2, x.data(), w.data(), out.data());
  EXPECT_FLOAT_EQ(out.at(0, 0), 1 * 3 + 2 * 4 + 0.5f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 1 * 5 + 2 * 6 - 0.5f);
}

/// The contract gemm must meet bit for bit: each C element starts from its
/// current value and adds op(A)[i,p] * op(B)[p,j] one term at a time for
/// p = 0, 1, ..., k-1.
void reference_gemm(Op op_a, Op op_b, std::size_t m, std::size_t n,
                    std::size_t k, const float* a, const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = c[i * n + j];
      for (std::size_t p = 0; p < k; ++p) {
        const float av = op_a == Op::kN ? a[i * k + p] : a[p * m + i];
        const float bv = op_b == Op::kN ? b[p * n + j] : b[j * k + p];
        acc += av * bv;
      }
      c[i * n + j] = acc;
    }
  }
}

/// Gaussian values with about `zero_share` of them exactly zero.
std::vector<float> random_values(std::size_t count, double zero_share,
                                 sim::Rng& rng) {
  std::vector<float> v(count);
  for (auto& x : v) {
    x = rng.next_bool(zero_share) ? 0.0f
                                  : static_cast<float>(rng.next_gaussian());
  }
  return v;
}

TEST(Gemm, BitIdenticalToScalarReference) {
  struct Shape {
    std::size_t m, n, k;
  };
  std::vector<Shape> shapes = {{1, 1, 1},  {17, 33, 5}, {33, 5, 17},
                               {5, 17, 33}, {1, 9, 4},  {9, 1, 4},
                               {4, 9, 1},  {16, 16, 16}};
  sim::Rng rng(77);
  for (int r = 0; r < 24; ++r) {
    shapes.push_back({1 + rng.next_below(20), 1 + rng.next_below(20),
                      1 + rng.next_below(20)});
  }
  const Op ops[] = {Op::kN, Op::kT};
  for (const Shape& s : shapes) {
    for (const Op op_a : ops) {
      for (const Op op_b : ops) {
        for (const bool preload : {false, true}) {
          for (const double zeros : {0.0, 0.4}) {
            const auto a = random_values(s.m * s.k, zeros, rng);
            const auto b = random_values(s.k * s.n, zeros, rng);
            std::vector<float> want(s.m * s.n, 0.0f);
            if (preload) want = random_values(s.m * s.n, 0.0, rng);
            std::vector<float> got = want;
            reference_gemm(op_a, op_b, s.m, s.n, s.k, a.data(), b.data(),
                           want.data());
            gemm(op_a, op_b, s.m, s.n, s.k, a.data(), b.data(), got.data());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  want.size() * sizeof(float)),
                      0)
                << s.m << "x" << s.n << "x" << s.k << " op_a "
                << static_cast<int>(op_a) << " op_b "
                << static_cast<int>(op_b) << " preload " << preload
                << " zeros " << zeros;
          }
        }
      }
    }
  }
}

TEST(Mlp, GradientsMatchFiniteDifferences) {
  MlpConfig cfg;
  cfg.layer_sizes = {3, 5, 2};
  cfg.output = OutputKind::kRegression;
  cfg.seed = 9;
  Mlp net(cfg);

  sim::Rng rng(4);
  const Tensor x = Tensor::randn(4, 3, rng, 1.0f);
  Tensor y = Tensor::randn(4, 2, rng, 1.0f);

  net.forward(x);
  net.backward(y);
  const std::vector<float> analytic(net.grads().begin(), net.grads().end());

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < net.n_params(); i += 7) {  // Sample params.
    const float orig = net.params()[i];
    net.params()[i] = orig + eps;
    net.forward(x);
    const float lp = net.backward(y);
    net.params()[i] = orig - eps;
    net.forward(x);
    const float lm = net.backward(y);
    net.params()[i] = orig;
    const float numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric, 5e-3f) << "param " << i;
  }
}

TEST(Mlp, ClassificationGradCheck) {
  MlpConfig cfg;
  cfg.layer_sizes = {4, 6, 3};
  cfg.output = OutputKind::kClassification;
  cfg.seed = 2;
  Mlp net(cfg);
  sim::Rng rng(5);
  const Tensor x = Tensor::randn(5, 4, rng, 1.0f);
  Tensor y(5, 1);
  for (int i = 0; i < 5; ++i) y.at(i, 0) = static_cast<float>(i % 3);

  net.forward(x);
  net.backward(y);
  const std::vector<float> analytic(net.grads().begin(), net.grads().end());

  const float eps = 1e-3f;
  for (std::size_t i = 0; i < net.n_params(); i += 11) {
    const float orig = net.params()[i];
    net.params()[i] = orig + eps;
    net.forward(x);
    const float lp = net.backward(y);
    net.params()[i] = orig - eps;
    net.forward(x);
    const float lm = net.backward(y);
    net.params()[i] = orig;
    EXPECT_NEAR(analytic[i], (lp - lm) / (2 * eps), 5e-3f) << "param " << i;
  }
}

TEST(Mlp, RejectsTinyConfigs) {
  MlpConfig cfg;
  cfg.layer_sizes = {4};
  EXPECT_THROW(Mlp{cfg}, std::invalid_argument);
}

TEST(Mlp, AccuracyComputation) {
  MlpConfig cfg;
  cfg.layer_sizes = {2, 2};
  cfg.output = OutputKind::kClassification;
  Mlp net(cfg);
  // Force identity-ish weights so argmax == input argmax.
  auto p = net.params();
  p[0] = 10.0f; p[1] = 0.0f; p[2] = 0.0f; p[3] = 10.0f;  // W.
  Tensor x(2, 2);
  x.at(0, 0) = 1.0f;
  x.at(1, 1) = 1.0f;
  Tensor y(2, 1);
  y.at(0, 0) = 0.0f;
  y.at(1, 0) = 1.0f;
  net.forward(x);
  EXPECT_FLOAT_EQ(net.accuracy(y), 1.0f);
  y.at(0, 0) = 1.0f;  // Now half wrong.
  EXPECT_FLOAT_EQ(net.accuracy(y), 0.5f);
}

TEST(Adam, MatchesScalarReference) {
  AdamConfig cfg;
  cfg.lr = 0.1f;
  cfg.grad_clip_norm = 0.0f;  // Disable.
  Adam opt(1, cfg);
  std::vector<float> p = {1.0f};
  const std::vector<float> g = {0.5f};
  opt.step(p, g);
  // t=1: m=0.05, v=0.00025/... bias-corrected mhat=0.5, vhat=0.25.
  const float expected = 1.0f - 0.1f * 0.5f / (std::sqrt(0.25f) + 1e-8f);
  EXPECT_NEAR(p[0], expected, 1e-6f);
  EXPECT_EQ(opt.steps_taken(), 1u);
}

TEST(Adam, ClippingScalesToNorm) {
  Adam opt(2, AdamConfig{.grad_clip_norm = 1.0f});
  std::vector<float> g = {3.0f, 4.0f};  // Norm 5.
  const float pre = opt.clip_gradients(g);
  EXPECT_FLOAT_EQ(pre, 5.0f);
  EXPECT_NEAR(std::hypot(g[0], g[1]), 1.0f, 1e-6f);
  std::vector<float> small = {0.3f, 0.4f};
  opt.clip_gradients(small);
  EXPECT_FLOAT_EQ(small[0], 0.3f);  // Under the norm: untouched.
}

TEST(Adam, SizeMismatchThrows) {
  Adam opt(4);
  std::vector<float> p(4), g(3);
  EXPECT_THROW(opt.step(p, g), std::invalid_argument);
}

TEST(Adam, WeightDecayPullsTowardZero) {
  AdamConfig cfg;
  cfg.weight_decay = 0.1f;
  cfg.grad_clip_norm = 0.0f;
  Adam opt(1, cfg);
  std::vector<float> p = {5.0f};
  const std::vector<float> g = {0.0f};
  opt.step(p, g);
  EXPECT_LT(p[0], 5.0f);
}

TEST(ByteStats, ClassifiesCases) {
  auto bump = [](float v, std::uint32_t delta) {
    std::uint32_t b;
    std::memcpy(&b, &v, 4);
    b ^= delta;
    float out;
    std::memcpy(&out, &b, 4);
    return out;
  };
  const float base = 1.234f;
  EXPECT_EQ(classify_change(base, base), ByteChangeCase::kUnchanged);
  EXPECT_EQ(classify_change(base, bump(base, 0x01)),
            ByteChangeCase::kLastByteOnly);
  EXPECT_EQ(classify_change(base, bump(base, 0x0100)),
            ByteChangeCase::kLastTwoBytes);
  EXPECT_EQ(classify_change(base, bump(base, 0x0101)),
            ByteChangeCase::kLastTwoBytes);
  EXPECT_EQ(classify_change(base, bump(base, 0x010000)),
            ByteChangeCase::kOther);
  EXPECT_EQ(classify_change(base, bump(base, 0x80000000)),
            ByteChangeCase::kOther);
}

TEST(ByteStats, ArrayAggregation) {
  const std::vector<float> prev = {1.0f, 2.0f, 3.0f};
  std::vector<float> curr = prev;
  std::uint32_t b;
  std::memcpy(&b, &curr[1], 4);
  b ^= 0x7;
  std::memcpy(&curr[1], &b, 4);
  const auto s = compare_arrays(prev, curr);
  EXPECT_EQ(s.total, 3u);
  EXPECT_EQ(s.unchanged, 2u);
  EXPECT_EQ(s.last_byte_only, 1u);
  EXPECT_EQ(s.changed(), 1u);
  EXPECT_DOUBLE_EQ(s.frac_case1(), 1.0);
  EXPECT_DOUBLE_EQ(s.frac_unchanged(), 2.0 / 3.0);
  EXPECT_THROW(compare_arrays(prev, std::vector<float>(2)),
               std::invalid_argument);
}

TEST(ModelZoo, TableIIIConfigs) {
  const auto models = table3_models();
  ASSERT_EQ(models.size(), 5u);
  EXPECT_EQ(models[0].name, "GPT2");
  EXPECT_EQ(models[0].n_params, 122'000'000u);
  EXPECT_EQ(models[2].name, "Bert-large-cased");
  EXPECT_EQ(models[2].n_layers, 24u);
  EXPECT_EQ(models[3].n_params, 737'000'000u);
  EXPECT_TRUE(models[4].full_graph_only);
  EXPECT_EQ(models[3].giant_cache_bytes, 2069ull * 1024 * 1024);
  EXPECT_EQ(model_by_name("T5-large").name, "T5-large");
  EXPECT_EQ(model_by_name("GPT2-11B").n_params, 11'000'000'000u);
  EXPECT_THROW(model_by_name("nope"), std::out_of_range);
}

TEST(ModelZoo, DerivedSizes) {
  const auto bert = bert_large_cased();
  EXPECT_EQ(bert.param_bytes(), bert.n_params * 4);
  EXPECT_EQ(bert.gradient_bytes(), bert.param_bytes());
  EXPECT_GT(bert.gradient_buffer_bytes(), 0u);
  EXPECT_LE(bert.gradient_buffer_bytes(), 256ull * 1024 * 1024);
}

TEST(ModelZoo, GiantCacheSizingMatchesTableIII) {
  // Table III reports the configured giant-cache size per model; our
  // derived requirement (FP16 params + gradient buffer) must land within
  // 15 % for every model — evidence the sizing rule is the paper's.
  for (const auto& m : table3_models()) {
    const double required = static_cast<double>(m.giant_cache_requirement());
    const double reported = static_cast<double>(m.giant_cache_bytes);
    EXPECT_NEAR(required / reported, 1.0, 0.15) << m.name;
  }
}

TEST(SyntheticData, Deterministic) {
  const auto task = make_classification_task(13);
  sim::Rng r1(5), r2(5);
  const auto& t = std::get<ClassificationTask>(task);
  const auto b1 = t.sample(8, r1);
  const auto b2 = t.sample(8, r2);
  for (std::size_t i = 0; i < b1.inputs.size(); ++i) {
    EXPECT_FLOAT_EQ(b1.inputs.flat()[i], b2.inputs.flat()[i]);
  }
}

TEST(Training, LossDecreases) {
  const auto task = make_regression_task();
  TrainRunConfig cfg;
  cfg.model = default_model_for(task);
  cfg.steps = 300;
  cfg.batch_size = 16;
  const auto res = run_training(task, cfg);
  ASSERT_GE(res.loss_curve.size(), 2u);
  EXPECT_LT(res.loss_curve.back(), res.loss_curve.front() * 0.5f);
}

TEST(Training, ClassifierLearns) {
  const auto task = make_classification_task();
  TrainRunConfig cfg;
  cfg.model = default_model_for(task);
  cfg.steps = 400;
  cfg.batch_size = 32;
  const auto res = run_training(task, cfg);
  EXPECT_GT(res.final_metric, 0.7f);  // 10 classes; chance = 0.1.
}

TEST(Training, ParamChangesConcentrateInLowBytes) {
  // Fig. 2(a): during fine-tuning most changed parameters change only
  // their least significant bytes; gradients show no such pattern (2(b)).
  const auto task = make_regression_task();
  TrainRunConfig cfg;
  cfg.model = default_model_for(task);
  cfg.steps = 800;
  cfg.batch_size = 16;
  cfg.adam.lr = 2e-4f;  // Fine-tuning-scale updates.
  const auto res = run_training(task, cfg);
  const auto& p = res.aggregate_param_changes;
  const auto& g = res.aggregate_grad_changes;
  EXPECT_GT(p.frac_low2_covered(), 0.5);
  EXPECT_GT(p.frac_low2_covered(), g.frac_low2_covered());
}

TEST(Training, DbaMatchesExactTrainingQuality) {
  // Table V / Fig. 10: TECO-Reduction leaves convergence essentially
  // unchanged when activated after warm-up.
  const auto task = make_classification_task();
  TrainRunConfig cfg;
  cfg.model = default_model_for(task);
  cfg.steps = 600;
  cfg.batch_size = 32;
  cfg.record_every = 20;

  auto exact_cfg = cfg;
  const auto exact = run_training(task, exact_cfg);

  auto dba_cfg = cfg;
  dba_cfg.dba_enabled = true;
  dba_cfg.act_aft_steps = 300;
  const auto dba = run_training(task, dba_cfg);

  EXPECT_EQ(dba.dba_active_steps, 300u);
  EXPECT_NEAR(dba.final_metric, exact.final_metric, 0.08f);
  EXPECT_NEAR(dba.final_eval_loss, exact.final_eval_loss,
              0.3f * std::abs(exact.final_eval_loss) + 0.1f);
}

TEST(Training, EarlyDbaActivationHurtsMore) {
  // Fig. 13: activating DBA from step 0 degrades the metric more than
  // activating after warm-up.
  const auto task = make_regression_task();
  TrainRunConfig cfg;
  cfg.model = default_model_for(task);
  cfg.steps = 600;
  cfg.batch_size = 16;

  auto exact = cfg;
  const float exact_loss = run_training(task, exact).final_eval_loss;

  auto early = cfg;
  early.dba_enabled = true;
  early.act_aft_steps = 0;
  const float early_loss = run_training(task, early).final_eval_loss;

  auto late = cfg;
  late.dba_enabled = true;
  late.act_aft_steps = 400;
  const float late_loss = run_training(task, late).final_eval_loss;

  EXPECT_LE(std::abs(late_loss - exact_loss),
            std::abs(early_loss - exact_loss) + 1e-4f);
}

TEST(Training, DirtyBytes4IsExact) {
  const auto task = make_regression_task();
  TrainRunConfig cfg;
  cfg.model = default_model_for(task);
  cfg.steps = 100;
  cfg.batch_size = 8;
  auto exact = cfg;
  auto dba4 = cfg;
  dba4.dba_enabled = true;
  dba4.act_aft_steps = 0;
  dba4.dirty_bytes = 4;
  const auto a = run_training(task, exact);
  const auto b = run_training(task, dba4);
  EXPECT_FLOAT_EQ(a.final_eval_loss, b.final_eval_loss);
}

}  // namespace
}  // namespace teco::dl
