// Four-lane float vectors for the teco::dl kernels.
//
// Written in the GCC/Clang vector extension: 16 bytes is the width every
// x86-64 (SSE2) and AArch64 (NEON) target holds in one register, so the
// kernels need no wider ISA, no intrinsics and no runtime dispatch. Lane
// arithmetic is IEEE single precision, one rounding per operation, exactly
// as the scalar code it replaces, provided nothing contracts a*b+c into an
// FMA (the build pins -ffp-contract=off).
#pragma once

#include <cstdint>
#include <cstring>

namespace teco::dl::lanes {

using V4f = float __attribute__((vector_size(16)));
using V4i = std::int32_t __attribute__((vector_size(16)));
using V4u = std::uint32_t __attribute__((vector_size(16)));

inline V4f load4(const float* p) {
  V4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, V4f v) { std::memcpy(p, &v, sizeof v); }

inline V4f splat(float x) { return V4f{x, x, x, x}; }

}  // namespace teco::dl::lanes
