// Loss heads and accuracy shared by Mlp, TinyTransformer and Gcnii.
//
// Each head writes dL/dout and returns the loss in double; the summation
// order is fixed, like gemm's, so the models' bytes do not depend on which
// model calls it.
#pragma once

#include <cstddef>

#include "dl/tensor.hpp"

namespace teco::dl {

/// Mean squared error of `out` against `targets` (same shape). Writes
/// dL/dout into `dout` and returns the loss.
double mse_head(const Tensor& out, const Tensor& targets, Tensor& dout);

/// Softmax cross-entropy of one row of `n` logits against class `label`.
/// Writes (softmax - onehot) * scale into `dlogits` and returns the row's
/// loss term, -log(p_label) * scale.
double softmax_xent_row(const float* logits, std::size_t n, std::size_t label,
                        double scale, float* dlogits);

/// Mean softmax cross-entropy over the rows of `out`; `targets` is [B, 1]
/// holding class indices.
double softmax_xent_head(const Tensor& out, const Tensor& targets,
                         Tensor& dout);

/// Index of the first maximum in row `r` of `t`.
std::size_t argmax_row(const Tensor& t, std::size_t r);

/// Share of rows of `out` whose argmax is the class index in column 0 of
/// `targets` (0 for an empty batch).
float argmax_accuracy(const Tensor& out, const Tensor& targets);

}  // namespace teco::dl
