// Numeric tests: tensors, backprop, Adam, byte stats, DBA training harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
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
/// p = 0, 1, ..., k-1, skipping the terms whose A element is zero.
void reference_gemm(Op op_a, Op op_b, std::size_t m, std::size_t n,
                    std::size_t k, const float* a, const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = c[i * n + j];
      for (std::size_t p = 0; p < k; ++p) {
        const float av = op_a == Op::kN ? a[i * k + p] : a[p * m + i];
        if (av == 0.0f) continue;
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
  // train_dba's shapes (TinyTransformer at d_model 8, d_ff 64, 32 rows)
  // first, then edge shapes around the 4 x 8 register tile.
  std::vector<Shape> shapes = {{32, 64, 8},  {32, 8, 64}, {64, 8, 32},
                               {8, 64, 32},  {2, 2, 8},   {1, 1, 2},
                               {1, 1, 1},    {17, 33, 5}, {33, 5, 17},
                               {5, 17, 33},  {1, 9, 4},   {9, 1, 4},
                               {4, 9, 1},    {16, 16, 16}};
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

/// Stores the logical [rows, cols] matrix `v` as itself (kN) or as its
/// transpose (kT).
std::vector<float> store_as(Op op, std::size_t rows, std::size_t cols,
                            const std::vector<float>& v) {
  if (op == Op::kN) return v;
  std::vector<float> t(v.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) t[c * rows + r] = v[r * cols + c];
  }
  return t;
}

TEST(Gemm, ZeroATermsAreSkippedExactly) {
  // Where skipping a zero-A term and adding it differ: the term is 0 * inf
  // or 0 * NaN, or it is +-0 and C holds -0. op(A) gets whole zero columns
  // p whose B rows p hold inf, -inf and NaN, plus scattered zeros over
  // finite B, and C starts at -0 (or at finite values).
  struct Shape {
    std::size_t m, n, k;
  };
  const std::vector<Shape> shapes = {{32, 64, 8}, {32, 8, 64}, {64, 8, 32},
                                     {8, 64, 32}, {2, 2, 8},   {1, 1, 2},
                                     {5, 13, 7},  {9, 17, 3},  {4, 8, 5}};
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  sim::Rng rng(4242);
  const Op ops[] = {Op::kN, Op::kT};
  for (const Shape& s : shapes) {
    for (const Op op_a : ops) {
      for (const Op op_b : ops) {
        for (const bool neg_zero_c : {true, false}) {
          auto a = random_values(s.m * s.k, 0.3, rng);  // Logical [m,k].
          auto b = random_values(s.k * s.n, 0.0, rng);  // Logical [k,n].
          for (std::size_t p = 0; p < s.k; p += 2) {
            for (std::size_t i = 0; i < s.m; ++i) a[i * s.k + p] = 0.0f;
            for (std::size_t j = 0; j < s.n; ++j) {
              b[p * s.n + j] = specials[(p + j) % 3];
            }
          }
          std::vector<float> want(s.m * s.n, -0.0f);
          if (!neg_zero_c) want = random_values(s.m * s.n, 0.2, rng);
          std::vector<float> got = want;
          const auto sa = store_as(op_a, s.m, s.k, a);
          const auto sb = store_as(op_b, s.k, s.n, b);
          reference_gemm(op_a, op_b, s.m, s.n, s.k, sa.data(), sb.data(),
                         want.data());
          gemm(op_a, op_b, s.m, s.n, s.k, sa.data(), sb.data(), got.data());
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                want.size() * sizeof(float)),
                    0)
              << s.m << "x" << s.n << "x" << s.k << " op_a "
              << static_cast<int>(op_a) << " op_b "
              << static_cast<int>(op_b) << " -0 C " << neg_zero_c;
        }
      }
    }
  }
}

/// Bit patterns as floats and back.
std::uint32_t word_of(float x) {
  std::uint32_t w;
  std::memcpy(&w, &x, sizeof w);
  return w;
}

float float_of(std::uint32_t w) {
  float x;
  std::memcpy(&x, &w, sizeof x);
  return x;
}

/// glibc 2.36's fdlibm __expm1f (sysdeps/ieee754/flt-32/s_expm1f.c),
/// transcribed statement for statement, bit manipulation on uint32 words.
float fdlibm_expm1f(float x) {
  const float one = 1.0f, huge = 1.0e+30f, tiny = 1.0e-30f,
              o_threshold = 8.8721679688e+01f, ln2_hi = 6.9313812256e-01f,
              ln2_lo = 9.0580006145e-06f, invln2 = 1.4426950216e+00f,
              Q1 = -3.3333335072e-02f, Q2 = 1.5873016091e-03f,
              Q3 = -7.9365076090e-05f, Q4 = 4.0082177293e-06f,
              Q5 = -2.0109921195e-07f;
  float y, hi, lo, c = 0.0f, t, e, hxs, hfx, r1;
  std::int32_t k;
  std::uint32_t hx = word_of(x);
  const std::uint32_t xsb = hx & 0x80000000u;  // Sign bit of x.
  hx &= 0x7fffffffu;                           // |x|.
  if (hx >= 0x4195b844u) {                     // |x| >= 27 ln2
    if (hx >= 0x42b17218u) {                   // |x| >= 88.721...
      if (hx > 0x7f800000u) return x + x;      // NaN
      if (hx == 0x7f800000u) return (xsb == 0) ? x : -1.0f;
      if (x > o_threshold) return huge * huge;  // Overflow.
    }
    if (xsb != 0) return tiny - one;  // x < -27 ln2: -1 with inexact.
  }
  if (hx > 0x3eb17218u) {    // |x| > 0.5 ln2
    if (hx < 0x3F851592u) {  // and |x| < 1.5 ln2
      if (xsb == 0) {
        hi = x - ln2_hi;
        lo = ln2_lo;
        k = 1;
      } else {
        hi = x + ln2_hi;
        lo = -ln2_lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(invln2 * x + ((xsb == 0) ? 0.5f : -0.5f));
      t = static_cast<float>(k);
      hi = x - t * ln2_hi;  // t * ln2_hi is exact here.
      lo = t * ln2_lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: return x.
    t = huge + x;
    return x - (t - (huge + x));
  } else {
    k = 0;
  }
  hfx = 0.5f * x;
  hxs = x * hfx;
  r1 = one + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
  t = 3.0f - r1 * hfx;
  e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0.
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return one + 2.0f * (x - e);
  }
  const std::uint32_t kexp = static_cast<std::uint32_t>(k) << 23;
  if (k <= -2 || k > 56) {  // Suffice to return exp(x) - 1.
    y = one - (e - x);
    y = float_of(word_of(y) + kexp);  // Add k to y's exponent.
    return y - one;
  }
  if (k < 23) {
    t = float_of(0x3f800000u - (0x1000000u >> k));  // t = 1 - 2^-k
    y = t - (e - x);
    y = float_of(word_of(y) + kexp);
  } else {
    t = float_of(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += one;
    y = float_of(word_of(y) + kexp);
  }
  return y;
}

/// glibc 2.36's fdlibm __tanhf (sysdeps/ieee754/flt-32/s_tanhf.c).
float fdlibm_tanhf(float x) {
  const float one = 1.0f, two = 2.0f, tiny = 1.0e-30f;
  float t, z;
  const std::uint32_t jx = word_of(x);
  const std::uint32_t ix = jx & 0x7fffffffu;
  const bool positive = (jx & 0x80000000u) == 0;
  if (ix >= 0x7f800000u) {  // x is inf or NaN.
    if (positive) return one / x + one;
    return one / x - one;
  }
  if (ix < 0x41b00000u) {                   // |x| < 22
    if (ix == 0) return x;                  // +-0
    if (ix < 0x24000000u) return x * (one + x);  // |x| < 2^-55
    if (ix >= 0x3f800000u) {                // |x| >= 1
      t = fdlibm_expm1f(two * std::fabs(x));
      z = one - two / (t + two);
    } else {
      t = fdlibm_expm1f(-two * std::fabs(x));
      z = -t / (t + two);
    }
  } else {  // |x| >= 22: +-1.
    z = one - tiny;
  }
  return positive ? z : -z;
}

// glibc up to 2.40 computes tanhf with the fdlibm code above; later
// releases switched to correctly rounded versions, which differ in the
// last bit for some inputs.
#if defined(__GLIBC__) && __GLIBC__ == 2 && __GLIBC_MINOR__ <= 40
constexpr bool kLibmTanhIsFdlibm = true;
#else
constexpr bool kLibmTanhIsFdlibm = false;
#endif

TEST(DlTanh, BitIdenticalToLibm) {
  std::vector<std::uint32_t> words;
  // A strided sweep over all 2^32 bit patterns (both signs, every
  // exponent, NaN payloads included).
  for (std::uint64_t w = 0; w < (1ull << 32); w += 4093) {
    words.push_back(static_cast<std::uint32_t>(w));
  }
  // +-64 ulps around every branch threshold of __tanhf and __expm1f. The
  // expm1f thresholds apply to 2|x|, i.e. to |x| one exponent lower.
  std::vector<std::uint32_t> centers = {0x24000000u, 0x33000000u,
                                        0x3eb17218u, 0x3F851592u,
                                        0x3f800000u, 0x41b00000u};
  for (const std::uint32_t c : {0x33000000u, 0x3eb17218u, 0x3F851592u}) {
    centers.push_back(c - 0x00800000u);
  }
  // k = -1/-2 is the 1.5 ln2 threshold above; k = 22/23 and 56/57 sit
  // where invln2 * 2|x| + 0.5 crosses 23 and 57.
  for (const float kk : {23.0f, 57.0f}) {
    centers.push_back(word_of((kk - 0.5f) / 1.4426950216e+00f / 2.0f));
  }
  for (const std::uint32_t c : centers) {
    for (std::uint32_t d = 0; d <= 128; ++d) {
      words.push_back(c - 64 + d);
      words.push_back((c - 64 + d) | 0x80000000u);
    }
  }
  // Zeros, subnormals, infinities, quiet and signalling NaNs.
  for (const std::uint32_t w :
       {0x00000000u, 0x00000001u, 0x00012345u, 0x007fffffu, 0x7f800000u,
        0x7fc00000u, 0x7fa00001u, 0x7fffffffu}) {
    words.push_back(w);
    words.push_back(w | 0x80000000u);
  }

  std::vector<float> xs(words.size());
  for (std::size_t i = 0; i < words.size(); ++i) xs[i] = float_of(words[i]);
  std::vector<float> got = xs;
  // Span lengths cycle through 0..9 so every tail length is hit.
  for (std::size_t at = 0, len = 0; at < got.size(); len = (len + 1) % 10) {
    const std::size_t take = std::min(len, got.size() - at);
    tanh(std::span<float>(got).subspan(at, take));
    at += take;
  }
  std::size_t bad_fdlibm = 0, bad_libm = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const float x = xs[i];
    if (word_of(got[i]) != word_of(fdlibm_tanhf(x)) && bad_fdlibm++ < 5) {
      ADD_FAILURE() << std::hexfloat << "tanh(" << x << ") = " << got[i]
                    << ", fdlibm " << fdlibm_tanhf(x);
    }
    const float lib = std::tanh(x);
    const bool same = std::isnan(x) ? std::isnan(got[i])
                                    : word_of(got[i]) == word_of(lib);
    if (kLibmTanhIsFdlibm && !same && bad_libm++ < 5) {
      ADD_FAILURE() << std::hexfloat << "tanh(" << x << ") = " << got[i]
                    << ", libm " << lib;
    }
  }
  EXPECT_EQ(bad_fdlibm, 0u);
  EXPECT_EQ(bad_libm, 0u);
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

/// The scalar Adam loop the vectorized sweep replaced, kept as its oracle.
struct ScalarAdam {
  AdamConfig cfg;
  std::vector<float> m, v;
  std::size_t t = 0;

  void step(std::span<float> params, std::span<const float> grads) {
    ++t;
    const float b1 = cfg.beta1, b2 = cfg.beta2;
    const float bc1 = 1.0f - std::pow(b1, static_cast<float>(t));
    const float bc2 = 1.0f - std::pow(b2, static_cast<float>(t));
    const float lr = cfg.lr;
    for (std::size_t i = 0; i < params.size(); ++i) {
      float g = grads[i];
      if (cfg.weight_decay != 0.0f) g += cfg.weight_decay * params[i];
      m[i] = b1 * m[i] + (1.0f - b1) * g;
      v[i] = b2 * v[i] + (1.0f - b2) * g * g;
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      params[i] -= lr * mhat / (std::sqrt(vhat) + cfg.eps);
    }
  }
};

TEST(Adam, StepBitIdenticalToScalarReference) {
  for (const std::size_t n : {1u, 3u, 4u, 1388u, 4099u}) {
    for (const float wd : {0.0f, 0.01f}) {
      AdamConfig cfg;
      cfg.weight_decay = wd;
      Adam opt(n, cfg);
      ScalarAdam ref{cfg, std::vector<float>(n, 0.0f),
                     std::vector<float>(n, 0.0f)};
      sim::Rng rng(n * 31 + (wd != 0.0f ? 1 : 0));
      std::vector<float> p = random_values(n, 0.05, rng);
      std::vector<float> want = p;
      for (int step = 0; step < 50; ++step) {
        auto g = random_values(n, 0.1, rng);
        for (auto& x : g) x *= step % 2 == 0 ? 1e-3f : 3.0f;
        opt.step(p, g);
        ref.step(want, g);
        ASSERT_EQ(std::memcmp(p.data(), want.data(), n * sizeof(float)), 0)
            << "params, n " << n << " wd " << wd << " step " << step;
        ASSERT_EQ(std::memcmp(opt.first_moment().data(), ref.m.data(),
                              n * sizeof(float)),
                  0)
            << "m, n " << n << " wd " << wd << " step " << step;
        ASSERT_EQ(std::memcmp(opt.second_moment().data(), ref.v.data(),
                              n * sizeof(float)),
                  0)
            << "v, n " << n << " wd " << wd << " step " << step;
      }
    }
  }
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
