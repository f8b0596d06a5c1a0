#include "dl/adam.hpp"

#include <cmath>
#include <stdexcept>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "dl/lanes.hpp"

namespace teco::dl {

Adam::Adam(std::size_t n_params, AdamConfig cfg)
    : cfg_(cfg), m_(n_params, 0.0f), v_(n_params, 0.0f) {}

float Adam::clip_gradients(std::span<float> grads) const {
  double sq = 0.0;
  for (const float g : grads) sq += static_cast<double>(g) * g;
  const auto norm = static_cast<float>(std::sqrt(sq));
  if (cfg_.grad_clip_norm > 0.0f && norm > cfg_.grad_clip_norm) {
    const float scale = cfg_.grad_clip_norm / norm;
    for (auto& g : grads) g *= scale;
  }
  return norm;
}

namespace {

using lanes::V4f;

float sqrt_lanes(float x) { return std::sqrt(x); }

// sqrtps, like sqrtss, is correctly rounded, so the lanes take the bits
// std::sqrt gives. (A loop over std::sqrt does not vectorize: it keeps
// the errno path for negative arguments.)
V4f sqrt_lanes(V4f x) {
#if defined(__SSE__)
  return _mm_sqrt_ps(x);
#else
  for (int l = 0; l < 4; ++l) x[l] = std::sqrt(x[l]);
  return x;
#endif
}

/// The step's scalars, as floats or splatted across four lanes.
template <class T>
struct Coeffs {
  T b1, one_minus_b1, b2, one_minus_b2, bc1, bc2, lr, eps, weight_decay;
};

/// One Adam update of one element or four lanes, in the order the
/// torch.optim.Adam scalar loop takes its operations.
template <bool kDecay, class T>
void update(T& p, T g, T& m, T& v, const Coeffs<T>& c) {
  if constexpr (kDecay) g += c.weight_decay * p;
  m = c.b1 * m + c.one_minus_b1 * g;
  v = c.b2 * v + c.one_minus_b2 * g * g;
  const T mhat = m / c.bc1;
  const T vhat = v / c.bc2;
  p -= c.lr * mhat / (sqrt_lanes(vhat) + c.eps);
}

/// The sweep: four lanes at a time, then a scalar tail.
template <bool kDecay>
void sweep(float* p, const float* g, float* m, float* v, std::size_t n,
           const Coeffs<float>& c) {
  using lanes::splat;
  const Coeffs<V4f> c4{splat(c.b1),  splat(c.one_minus_b1),
                       splat(c.b2),  splat(c.one_minus_b2),
                       splat(c.bc1), splat(c.bc2),
                       splat(c.lr),  splat(c.eps),
                       splat(c.weight_decay)};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    V4f pi = lanes::load4(p + i), mi = lanes::load4(m + i),
        vi = lanes::load4(v + i);
    update<kDecay>(pi, lanes::load4(g + i), mi, vi, c4);
    lanes::store4(p + i, pi);
    lanes::store4(m + i, mi);
    lanes::store4(v + i, vi);
  }
  for (; i < n; ++i) update<kDecay>(p[i], g[i], m[i], v[i], c);
}

}  // namespace

void Adam::step(std::span<float> params, std::span<const float> grads) {
  if (params.size() != m_.size() || grads.size() != m_.size()) {
    throw std::invalid_argument("Adam: array sizes must match n_params");
  }
  ++t_;
  const float b1 = cfg_.beta1, b2 = cfg_.beta2;
  const Coeffs<float> c{b1,
                        1.0f - b1,
                        b2,
                        1.0f - b2,
                        1.0f - std::pow(b1, static_cast<float>(t_)),
                        1.0f - std::pow(b2, static_cast<float>(t_)),
                        cfg_.lr,
                        cfg_.eps,
                        cfg_.weight_decay};
  // One streaming pass, four lanes at a time like the paper's AVX512
  // CPU-Adam, so whole cache lines of params update together.
  if (cfg_.weight_decay != 0.0f) {
    sweep<true>(params.data(), grads.data(), m_.data(), v_.data(),
                params.size(), c);
  } else {
    sweep<false>(params.data(), grads.data(), m_.data(), v_.data(),
                 params.size(), c);
  }
}

}  // namespace teco::dl
