// NEON distance primitives for AArch64, where NEON is part of the baseline
// ISA — no runtime feature check or target attributes needed; the TU is
// simply empty on other architectures.

#include "vec/kernels_arch.h"

#if defined(PEXESO_HAVE_NEON_KERNELS)

#include <arm_neon.h>

#include <cmath>

namespace pexeso::simd {
namespace {

double NeonSqL2(const float* a, const float* b, uint32_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  uint32_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const float32x4_t d0 = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    const float32x4_t d1 =
        vsubq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
    acc0 = vfmaq_f32(acc0, d0, d0);
    acc1 = vfmaq_f32(acc1, d1, d1);
  }
  for (; i + 4 <= dim; i += 4) {
    const float32x4_t d = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc0 = vfmaq_f32(acc0, d, d);
  }
  double total = static_cast<double>(vaddvq_f32(vaddq_f32(acc0, acc1)));
  float tail = 0.0f;
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    tail += d * d;
  }
  return total + static_cast<double>(tail);
}

void NeonSqL2Many(const float* q, const float* base, size_t n, uint32_t dim,
                  double* out) {
  for (size_t r = 0; r < n; ++r) out[r] = NeonSqL2(q, base + r * dim, dim);
}

double NeonDot(const float* a, const float* b, uint32_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  uint32_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  for (; i + 4 <= dim; i += 4) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  double total = static_cast<double>(vaddvq_f32(vaddq_f32(acc0, acc1)));
  float tail = 0.0f;
  for (; i < dim; ++i) tail += a[i] * b[i];
  return total + static_cast<double>(tail);
}

void NeonDotMany(const float* q, const float* base, size_t n, uint32_t dim,
                 double* out) {
  for (size_t r = 0; r < n; ++r) out[r] = NeonDot(q, base + r * dim, dim);
}

double NeonCosCore(const float* a, const float* b, uint32_t dim, double* na2,
                   double* nb2) {
  float32x4_t dot = vdupq_n_f32(0.0f);
  float32x4_t na = vdupq_n_f32(0.0f);
  float32x4_t nb = vdupq_n_f32(0.0f);
  uint32_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const float32x4_t va = vld1q_f32(a + i);
    const float32x4_t vb = vld1q_f32(b + i);
    dot = vfmaq_f32(dot, va, vb);
    na = vfmaq_f32(na, va, va);
    nb = vfmaq_f32(nb, vb, vb);
  }
  double dsum = static_cast<double>(vaddvq_f32(dot));
  double nasum = static_cast<double>(vaddvq_f32(na));
  double nbsum = static_cast<double>(vaddvq_f32(nb));
  float dt = 0.0f, at = 0.0f, bt = 0.0f;
  for (; i < dim; ++i) {
    dt += a[i] * b[i];
    at += a[i] * a[i];
    bt += b[i] * b[i];
  }
  *na2 = nasum + static_cast<double>(at);
  *nb2 = nbsum + static_cast<double>(bt);
  return dsum + static_cast<double>(dt);
}

double NeonL1(const float* a, const float* b, uint32_t dim) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  uint32_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    acc0 = vaddq_f32(acc0, vabdq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
    acc1 = vaddq_f32(acc1,
                     vabdq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4)));
  }
  for (; i + 4 <= dim; i += 4) {
    acc0 = vaddq_f32(acc0, vabdq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  double total = static_cast<double>(vaddvq_f32(vaddq_f32(acc0, acc1)));
  float tail = 0.0f;
  for (; i < dim; ++i) tail += std::fabs(a[i] - b[i]);
  return total + static_cast<double>(tail);
}

void NeonL1Many(const float* q, const float* base, size_t n, uint32_t dim,
                double* out) {
  for (size_t r = 0; r < n; ++r) out[r] = NeonL1(q, base + r * dim, dim);
}

void NeonNorms(const float* base, size_t n, uint32_t dim, float* out) {
  for (size_t r = 0; r < n; ++r) {
    const float* v = base + r * dim;
    out[r] = static_cast<float>(std::sqrt(NeonDot(v, v, dim)));
  }
}

// Many-to-many tiles, blocked four query rows deep: each 4-float chunk of a
// base row is loaded once and fed to four FMA accumulators (see the AVX2 TU
// for the rationale).

void NeonSqL2Tile(const float* qs, size_t nq, const float* base, size_t nv,
                  uint32_t dim, double* out) {
  size_t r = 0;
  for (; r + 4 <= nq; r += 4) {
    const float* q0 = qs + (r + 0) * dim;
    const float* q1 = qs + (r + 1) * dim;
    const float* q2 = qs + (r + 2) * dim;
    const float* q3 = qs + (r + 3) * dim;
    for (size_t c = 0; c < nv; ++c) {
      const float* v = base + c * dim;
      float32x4_t acc0 = vdupq_n_f32(0.0f);
      float32x4_t acc1 = vdupq_n_f32(0.0f);
      float32x4_t acc2 = vdupq_n_f32(0.0f);
      float32x4_t acc3 = vdupq_n_f32(0.0f);
      uint32_t i = 0;
      for (; i + 4 <= dim; i += 4) {
        const float32x4_t bv = vld1q_f32(v + i);
        const float32x4_t d0 = vsubq_f32(vld1q_f32(q0 + i), bv);
        const float32x4_t d1 = vsubq_f32(vld1q_f32(q1 + i), bv);
        const float32x4_t d2 = vsubq_f32(vld1q_f32(q2 + i), bv);
        const float32x4_t d3 = vsubq_f32(vld1q_f32(q3 + i), bv);
        acc0 = vfmaq_f32(acc0, d0, d0);
        acc1 = vfmaq_f32(acc1, d1, d1);
        acc2 = vfmaq_f32(acc2, d2, d2);
        acc3 = vfmaq_f32(acc3, d3, d3);
      }
      float t0 = 0.0f, t1 = 0.0f, t2 = 0.0f, t3 = 0.0f;
      for (; i < dim; ++i) {
        const float x = v[i];
        const float d0 = q0[i] - x;
        const float d1 = q1[i] - x;
        const float d2 = q2[i] - x;
        const float d3 = q3[i] - x;
        t0 += d0 * d0;
        t1 += d1 * d1;
        t2 += d2 * d2;
        t3 += d3 * d3;
      }
      out[(r + 0) * nv + c] =
          static_cast<double>(vaddvq_f32(acc0)) + static_cast<double>(t0);
      out[(r + 1) * nv + c] =
          static_cast<double>(vaddvq_f32(acc1)) + static_cast<double>(t1);
      out[(r + 2) * nv + c] =
          static_cast<double>(vaddvq_f32(acc2)) + static_cast<double>(t2);
      out[(r + 3) * nv + c] =
          static_cast<double>(vaddvq_f32(acc3)) + static_cast<double>(t3);
    }
  }
  for (; r < nq; ++r) {
    NeonSqL2Many(qs + r * dim, base, nv, dim, out + r * nv);
  }
}

void NeonDotTile(const float* qs, size_t nq, const float* base, size_t nv,
                 uint32_t dim, double* out) {
  size_t r = 0;
  for (; r + 4 <= nq; r += 4) {
    const float* q0 = qs + (r + 0) * dim;
    const float* q1 = qs + (r + 1) * dim;
    const float* q2 = qs + (r + 2) * dim;
    const float* q3 = qs + (r + 3) * dim;
    for (size_t c = 0; c < nv; ++c) {
      const float* v = base + c * dim;
      float32x4_t acc0 = vdupq_n_f32(0.0f);
      float32x4_t acc1 = vdupq_n_f32(0.0f);
      float32x4_t acc2 = vdupq_n_f32(0.0f);
      float32x4_t acc3 = vdupq_n_f32(0.0f);
      uint32_t i = 0;
      for (; i + 4 <= dim; i += 4) {
        const float32x4_t bv = vld1q_f32(v + i);
        acc0 = vfmaq_f32(acc0, vld1q_f32(q0 + i), bv);
        acc1 = vfmaq_f32(acc1, vld1q_f32(q1 + i), bv);
        acc2 = vfmaq_f32(acc2, vld1q_f32(q2 + i), bv);
        acc3 = vfmaq_f32(acc3, vld1q_f32(q3 + i), bv);
      }
      float t0 = 0.0f, t1 = 0.0f, t2 = 0.0f, t3 = 0.0f;
      for (; i < dim; ++i) {
        const float x = v[i];
        t0 += q0[i] * x;
        t1 += q1[i] * x;
        t2 += q2[i] * x;
        t3 += q3[i] * x;
      }
      out[(r + 0) * nv + c] =
          static_cast<double>(vaddvq_f32(acc0)) + static_cast<double>(t0);
      out[(r + 1) * nv + c] =
          static_cast<double>(vaddvq_f32(acc1)) + static_cast<double>(t1);
      out[(r + 2) * nv + c] =
          static_cast<double>(vaddvq_f32(acc2)) + static_cast<double>(t2);
      out[(r + 3) * nv + c] =
          static_cast<double>(vaddvq_f32(acc3)) + static_cast<double>(t3);
    }
  }
  for (; r < nq; ++r) {
    NeonDotMany(qs + r * dim, base, nv, dim, out + r * nv);
  }
}

void NeonL1Tile(const float* qs, size_t nq, const float* base, size_t nv,
                uint32_t dim, double* out) {
  size_t r = 0;
  for (; r + 4 <= nq; r += 4) {
    const float* q0 = qs + (r + 0) * dim;
    const float* q1 = qs + (r + 1) * dim;
    const float* q2 = qs + (r + 2) * dim;
    const float* q3 = qs + (r + 3) * dim;
    for (size_t c = 0; c < nv; ++c) {
      const float* v = base + c * dim;
      float32x4_t acc0 = vdupq_n_f32(0.0f);
      float32x4_t acc1 = vdupq_n_f32(0.0f);
      float32x4_t acc2 = vdupq_n_f32(0.0f);
      float32x4_t acc3 = vdupq_n_f32(0.0f);
      uint32_t i = 0;
      for (; i + 4 <= dim; i += 4) {
        const float32x4_t bv = vld1q_f32(v + i);
        acc0 = vaddq_f32(acc0, vabdq_f32(vld1q_f32(q0 + i), bv));
        acc1 = vaddq_f32(acc1, vabdq_f32(vld1q_f32(q1 + i), bv));
        acc2 = vaddq_f32(acc2, vabdq_f32(vld1q_f32(q2 + i), bv));
        acc3 = vaddq_f32(acc3, vabdq_f32(vld1q_f32(q3 + i), bv));
      }
      float t0 = 0.0f, t1 = 0.0f, t2 = 0.0f, t3 = 0.0f;
      for (; i < dim; ++i) {
        const float x = v[i];
        t0 += std::fabs(q0[i] - x);
        t1 += std::fabs(q1[i] - x);
        t2 += std::fabs(q2[i] - x);
        t3 += std::fabs(q3[i] - x);
      }
      out[(r + 0) * nv + c] =
          static_cast<double>(vaddvq_f32(acc0)) + static_cast<double>(t0);
      out[(r + 1) * nv + c] =
          static_cast<double>(vaddvq_f32(acc1)) + static_cast<double>(t1);
      out[(r + 2) * nv + c] =
          static_cast<double>(vaddvq_f32(acc2)) + static_cast<double>(t2);
      out[(r + 3) * nv + c] =
          static_cast<double>(vaddvq_f32(acc3)) + static_cast<double>(t3);
    }
  }
  for (; r < nq; ++r) {
    NeonL1Many(qs + r * dim, base, nv, dim, out + r * nv);
  }
}

constexpr Ops kNeonOps = {
    SimdLevel::kNeon, &NeonSqL2,    &NeonSqL2Many,
    &NeonDot,         &NeonDotMany, &NeonCosCore,
    &NeonL1,          &NeonL1Many,  &NeonNorms,
    &NeonSqL2Tile,    &NeonDotTile, &NeonL1Tile,
};

}  // namespace

const Ops& NeonOps() { return kNeonOps; }

}  // namespace pexeso::simd

#endif  // PEXESO_HAVE_NEON_KERNELS
