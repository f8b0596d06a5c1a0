#include "dl/tensor.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "dl/lanes.hpp"

namespace teco::dl {

namespace {

using lanes::load4;
using lanes::splat;
using lanes::store4;
using lanes::V4f;
using lanes::V4i;
using lanes::V4u;

V4u bits(V4f v) { return __builtin_bit_cast(V4u, v); }

V4f from_bits(V4u v) { return __builtin_bit_cast(V4f, v); }

/// Lane-wise `mask ? yes : no` for an all-ones/all-zeros comparison mask.
V4f select(V4i mask, V4f yes, V4f no) {
  const V4u m = __builtin_bit_cast(V4u, mask);
  return from_bits((bits(yes) & m) | (bits(no) & ~m));
}

V4i select(V4i mask, V4i yes, V4i no) { return (yes & mask) | (no & ~mask); }

/// C[0..MR)[0..8) += A rows [0..MR) times B[k, 0..8), ascending k, with the
/// MR x 8 block of C held in 2*MR registers across the whole k loop. Row r,
/// term p reads a[r * a_row + p * a_col] and b[p * ldb]; a zero A element
/// skips only its own row's term.
template <std::size_t MR>
void gemm_tile(std::size_t k, const float* a, std::size_t a_row,
               std::size_t a_col, const float* b, std::size_t ldb, float* c,
               std::size_t ldc) {
  V4f lo[MR], hi[MR];
  for (std::size_t r = 0; r < MR; ++r) {
    lo[r] = load4(c + r * ldc);
    hi[r] = load4(c + r * ldc + 4);
  }
  for (std::size_t p = 0; p < k; ++p) {
    const V4f b0 = load4(b + p * ldb);
    const V4f b1 = load4(b + p * ldb + 4);
    for (std::size_t r = 0; r < MR; ++r) {
      const float av = a[r * a_row + p * a_col];
      if (av == 0.0f) continue;
      const V4f va = splat(av);
      lo[r] += va * b0;
      hi[r] += va * b1;
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    store4(c + r * ldc, lo[r]);
    store4(c + r * ldc + 4, hi[r]);
  }
}

constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 8;

// glibc 2.36 fdlibm constants (sysdeps/ieee754/flt-32/s_expm1f.c).
constexpr float kLn2Hi = 6.9313812256e-01f;  // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;  // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02f;     // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;      // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;     // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;      // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;     // 0xb457edbb

/// fdlibm __expm1f on four lanes, for the arguments __tanhf passes it:
/// -2|x| in (-2, 0) and 2|x| in [2, 44). There k = 1 and the overflow and
/// x < -27 ln2 branches never occur, so they are left out; every other
/// case is computed on every lane in the C source's operation order and
/// chosen by mask, so each lane's bits match the scalar function.
V4f expm1_for_tanh(V4f x) {
  const V4i neg = __builtin_bit_cast(V4i, x) < 0;
  const V4u hx = bits(x) & 0x7fffffffu;

  // Argument reduction: x = hi - lo = r + k ln2, c the rounding error.
  // 0.5 ln2 < |x| < 1.5 ln2 takes k = +-1 directly.
  const V4f hi1 = select(neg, x + kLn2Hi, x - kLn2Hi);
  const V4f lo1 = select(neg, splat(-kLn2Lo), splat(kLn2Lo));
  const V4i k1 = select(neg, V4i{} - 1, V4i{} + 1);
  const V4i kn = __builtin_convertvector(
      splat(kInvLn2) * x + select(neg, splat(-0.5f), splat(0.5f)), V4i);
  const V4f tn = __builtin_convertvector(kn, V4f);
  const V4f hin = x - tn * kLn2Hi;  // tn * ln2_hi is exact here.
  const V4f lon = tn * kLn2Lo;
  const V4i near = hx < 0x3F851592u;
  const V4f hi = select(near, hi1, hin);
  const V4f lo = select(near, lo1, lon);
  const V4i reduce = hx > 0x3eb17218u;
  const V4f xr_red = hi - lo;
  const V4f xr = select(reduce, xr_red, x);
  const V4f c = (hi - xr_red) - lo;
  const V4i k = select(reduce, select(near, k1, kn), V4i{});

  // x is now in the primary range.
  const V4f hfx = 0.5f * xr;
  const V4f hxs = xr * hfx;
  const V4f r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const V4f t = 3.0f - r1 * hfx;
  V4f e = hxs * ((r1 - t) / (6.0f - xr * t));
  const V4f y_k0 = xr - (xr * e - hxs);  // c is 0.
  e = (xr * (e - c) - c);
  e -= hxs;
  const V4f y_km1 = 0.5f * (xr - e) - 0.5f;
  // Adding k to the exponent field: lanes where k is out of a case's range
  // compute garbage that the selects below discard.
  const V4u kexp = __builtin_bit_cast(V4u, k) << 23;
  // k <= -2 or k > 56.
  const V4f y_far = from_bits(bits(1.0f - (e - xr)) + kexp) - 1.0f;
  // 2^-k, and 1 - 2^-k: the source's 0x3f800000 - (0x1000000 >> k) is
  // exactly this float for 2 <= k < 23.
  const V4f two_mk =
      from_bits((0x7fu - __builtin_bit_cast(V4u, k)) << 23);
  const V4f y_mid = from_bits(bits((1.0f - two_mk) - (e - xr)) + kexp);
  const V4f y_high = from_bits(bits((xr - (e + two_mk)) + 1.0f) + kexp);

  V4f y = select(k < 23, y_mid, y_high);
  y = select((k <= -2) | (k > 56), y_far, y);
  y = select(k == -1, y_km1, y);
  y = select(k == 0, y_k0, y);
  // |x| < 2^-25 returns x itself.
  return select(hx < 0x33000000u, x, y);
}

/// fdlibm __tanhf (glibc 2.36 sysdeps/ieee754/flt-32/s_tanhf.c) on four
/// lanes, every branch evaluated and chosen by mask.
V4f tanh4(V4f x) {
  const V4i jx = __builtin_bit_cast(V4i, x);
  const V4u ix = bits(x) & 0x7fffffffu;
  const V4f ax = from_bits(ix);
  const V4i ge1 = ix >= 0x3f800000u;  // |x| >= 1
  const V4i finite = ix < 0x7f800000u;
  const V4i below22 = ix < 0x41b00000u;
  // Lanes that never use expm1 get a harmless argument.
  const V4f arg =
      select(below22, select(ge1, 2.0f * ax, -2.0f * ax), V4f{});
  const V4f t = expm1_for_tanh(arg);
  // |x| >= 1: 1 - 2/(t+2); |x| < 1: -t/(t+2); inf/NaN: 1/x +- 1. One
  // division serves all three.
  const V4f num = select(finite, select(ge1, splat(2.0f), -t), splat(1.0f));
  const V4f den = select(finite, t + 2.0f, x);
  const V4f q = num / den;
  V4f z = select(ge1, 1.0f - q, q);
  z = select(below22, z, splat(1.0f));  // |x| >= 22: one - tiny == 1.
  V4f r = select(jx < 0, -z, z);
  // |x| < 2^-55 (and +-0, which this returns unchanged): x*(1+x).
  r = select(ix < 0x24000000u, x * (1.0f + x), r);
  return select(finite, r, q + select(jx < 0, splat(-1.0f), splat(1.0f)));
}

}  // namespace

Tensor Tensor::randn(std::size_t rows, std::size_t cols, sim::Rng& rng,
                     float stddev) {
  Tensor t(rows, cols);
  for (auto& v : t.data_) {
    v = static_cast<float>(rng.next_gaussian()) * stddev;
  }
  return t;
}

void fill_rows(Tensor& t, std::span<const float> row) {
  assert(row.size() == t.cols());
  for (std::size_t r = 0; r < t.rows(); ++r) {
    std::copy(row.begin(), row.end(), t.data() + r * t.cols());
  }
}

void gemm(Op op_a, Op op_b, std::size_t m, std::size_t n, std::size_t k,
          const float* a, const float* b, float* c) {
  // A transposed B is first gathered into [k,n] (a no-op layout change
  // when n or k is 1), so every B row is contiguous for the tiles.
  thread_local std::vector<float> bt;
  if (op_b == Op::kT && n > 1 && k > 1) {
    bt.resize(k * n);
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t j = 0; j < n; ++j) bt[p * n + j] = b[j * k + p];
    }
    b = bt.data();
  }
  const std::size_t a_row = op_a == Op::kN ? k : 1;
  const std::size_t a_col = op_a == Op::kN ? 1 : m;
  const std::size_t n_tiled = n - n % kTileCols;
  for (std::size_t i = 0; i < m; i += kTileRows) {
    const std::size_t rows = std::min(kTileRows, m - i);
    const float* ai = a + i * a_row;
    float* ci = c + i * n;
    for (std::size_t j = 0; j < n_tiled; j += kTileCols) {
      switch (rows) {
        case 4: gemm_tile<4>(k, ai, a_row, a_col, b + j, n, ci + j, n); break;
        case 3: gemm_tile<3>(k, ai, a_row, a_col, b + j, n, ci + j, n); break;
        case 2: gemm_tile<2>(k, ai, a_row, a_col, b + j, n, ci + j, n); break;
        default: gemm_tile<1>(k, ai, a_row, a_col, b + j, n, ci + j, n);
      }
    }
    // Columns past the last full tile, one element at a time.
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = n_tiled; j < n; ++j) {
        float acc = ci[r * n + j];
        for (std::size_t p = 0; p < k; ++p) {
          const float av = ai[r * a_row + p * a_col];
          if (av == 0.0f) continue;
          acc += av * b[p * n + j];
        }
        ci[r * n + j] = acc;
      }
    }
  }
}

void tanh(std::span<float> x) {
  float* p = x.data();
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) store4(p + i, tanh4(load4(p + i)));
  if (i == n) return;
  // The last 1-3 values go through the same four-lane path, zero-padded.
  float tail[4] = {};
  std::copy(p + i, p + n, tail);
  store4(tail, tanh4(load4(tail)));
  std::copy(tail, tail + (n - i), p + i);
}

}  // namespace teco::dl
