// Minimal dense FP32 tensor used by the numeric training path.
//
// TECO's numeric experiments (Fig. 2, Fig. 10, Fig. 13, Table V) need real
// parameter/gradient value dynamics, not a full framework; this tensor is a
// contiguous row-major buffer plus the two kernels the models share (gemm and
// tanh), both bit-exact against plain scalar code. The
// contiguous layout is deliberate: byte-change statistics and DBA splicing
// walk the raw bytes exactly as the CXL modules would walk cache lines.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/rng.hpp"

namespace teco::dl {

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  static Tensor randn(std::size_t rows, std::size_t cols, sim::Rng& rng,
                      float stddev);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  std::span<float> flat() { return data_; }
  std::span<const float> flat() const { return data_; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void fill(float v) { data_.assign(data_.size(), v); }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<float> data_;
};

/// Row i of `t` = `row`, for every row (the bias preload of a linear layer).
void fill_rows(Tensor& t, std::span<const float> row);

/// Operand form for gemm: as stored, or transposed.
enum class Op { kN, kT };

/// C[m,n] += op(A)[m,k] * op(B)[k,n] on contiguous row-major buffers. A is
/// stored [m,k] (kN) or [k,m] (kT); B is stored [k,n] (kN) or [n,k] (kT).
/// The dense kernel of teco::dl: every model's matmuls, column sums
/// (ones^T X) and row dots go through it.
///
/// Summation order is part of the contract. Each C element starts from its
/// current value and takes its k terms one at a time in ascending k order,
/// so callers zero C or preload it (bias, residual) and apply scalar factors
/// before (to a copy of A) or after (to C). This reproduces a plain
/// triple loop bit for bit: DBA splicing and the Fig. 2 byte statistics read
/// raw parameter and gradient bytes, so no float may move.
///
/// Terms whose A element is zero are skipped, which makes sparse A (GCNII's
/// adjacency, masked loss rows) cheap. With finite B that changes no bit
/// unless C starts at -0: adding a +-0 term to any other value is the
/// identity, and a sum that does not start at -0 never becomes -0. With an
/// inf or NaN in B, or C at -0, the skip is what the result follows.
///
/// The kernel holds a 4 x 8 tile of C in eight four-lane registers across
/// the whole k loop; the columns past the last multiple of 8 go one element
/// at a time. Both keep the order above exactly (the build pins
/// -ffp-contract=off, so no a*b+c is fused into an FMA).
void gemm(Op op_a, Op op_b, std::size_t m, std::size_t n, std::size_t k,
          const float* a, const float* b, float* c);

/// x = tanh(x) for every element, in place: the activation kernel of
/// teco::dl (Mlp hidden layers, the transformer's MLP).
///
/// Bit-identical to glibc 2.36's tanhf, which is fdlibm's __tanhf over
/// __expm1f, for every float input, NaN payloads included. The kernel is a
/// branch-free four-lane port of that C code: each lane evaluates every
/// reduction case in the source's operation order and selects its own by
/// mask, so dl's bits no longer depend on the host libm.
void tanh(std::span<float> x);

}  // namespace teco::dl
