// Adam optimizer, matching ZeRO-Offload's CPU optimizer semantics.
//
// ZeRO-Offload keeps optimizer states (m, v) and FP32 master parameters in
// CPU memory; each training step clips gradients by global norm (phase 4)
// and runs a vectorized Adam sweep (phase 5). The sweep is a streaming pass
// over four arrays, four lanes at a time with a packed square root, and
// bit-identical to the plain scalar loop — that streaming store of updated
// parameters is exactly the cache-line writeback stream the update protocol
// taps.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace teco::dl {

struct AdamConfig {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
  float grad_clip_norm = 1.0f;  ///< <= 0 disables clipping.
};

class Adam {
 public:
  Adam(std::size_t n_params, AdamConfig cfg = {});

  /// Clip `grads` in place to the configured global norm.
  /// Returns the pre-clip norm.
  float clip_gradients(std::span<float> grads) const;

  /// One Adam step: params -= update(grads). Arrays must have n_params
  /// elements. Bias-corrected, matching torch.optim.Adam.
  void step(std::span<float> params, std::span<const float> grads);

  std::size_t steps_taken() const { return t_; }
  std::span<const float> first_moment() const { return m_; }
  std::span<const float> second_moment() const { return v_; }
  const AdamConfig& config() const { return cfg_; }

 private:
  AdamConfig cfg_;
  std::vector<float> m_;
  std::vector<float> v_;
  std::size_t t_ = 0;
};

}  // namespace teco::dl
