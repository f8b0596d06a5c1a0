#include "dl/tensor.hpp"

#include <algorithm>
#include <cassert>

namespace teco::dl {

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
  // Loop order i-k-j: the inner loop is an axpy over one row of C, so every
  // element still sums in ascending k, yet the loop vectorizes without
  // reassociation. A transposed B is first gathered into [k,n] for that
  // (a no-op layout change when n or k is 1).
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
  for (std::size_t i = 0; i < m; ++i) {
    float* ci = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a[i * a_row + p * a_col];
      if (av == 0.0f) continue;
      const float* bp = b + p * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += av * bp[j];
    }
  }
}

}  // namespace teco::dl
