// AVX2+FMA distance primitives. Every function carries a target attribute,
// so this TU compiles into any x86-64 binary without raising the global
// -march baseline; kernels.cc only routes calls here after
// Avx2CpuSupported() confirms the CPU at startup.

#include "vec/kernels_arch.h"

#if defined(PEXESO_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <cmath>

namespace pexeso::simd {
namespace {

#define PEXESO_AVX2 __attribute__((target("avx2,fma")))

/// Horizontal sum of an 8-lane float register, widened to double.
PEXESO_AVX2 inline double HSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return static_cast<double>(_mm_cvtss_f32(s));
}

PEXESO_AVX2 double Avx2SqL2(const float* a, const float* b, uint32_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  uint32_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d, d, acc0);
  }
  double total = HSum(_mm256_add_ps(acc0, acc1));
  float tail = 0.0f;
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    tail += d * d;
  }
  return total + static_cast<double>(tail);
}

PEXESO_AVX2 void Avx2SqL2Many(const float* q, const float* base, size_t n,
                              uint32_t dim, double* out) {
  for (size_t r = 0; r < n; ++r) {
    out[r] = Avx2SqL2(q, base + r * dim, dim);
  }
}

PEXESO_AVX2 double Avx2Dot(const float* a, const float* b, uint32_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  uint32_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  double total = HSum(_mm256_add_ps(acc0, acc1));
  float tail = 0.0f;
  for (; i < dim; ++i) tail += a[i] * b[i];
  return total + static_cast<double>(tail);
}

PEXESO_AVX2 void Avx2DotMany(const float* q, const float* base, size_t n,
                             uint32_t dim, double* out) {
  for (size_t r = 0; r < n; ++r) {
    out[r] = Avx2Dot(q, base + r * dim, dim);
  }
}

PEXESO_AVX2 double Avx2CosCore(const float* a, const float* b, uint32_t dim,
                               double* na2, double* nb2) {
  __m256 dot = _mm256_setzero_ps();
  __m256 na = _mm256_setzero_ps();
  __m256 nb = _mm256_setzero_ps();
  uint32_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    dot = _mm256_fmadd_ps(va, vb, dot);
    na = _mm256_fmadd_ps(va, va, na);
    nb = _mm256_fmadd_ps(vb, vb, nb);
  }
  double dsum = HSum(dot), nasum = HSum(na), nbsum = HSum(nb);
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

PEXESO_AVX2 double Avx2L1(const float* a, const float* b, uint32_t dim) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  uint32_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_add_ps(acc0, _mm256_andnot_ps(sign_mask, d0));
    acc1 = _mm256_add_ps(acc1, _mm256_andnot_ps(sign_mask, d1));
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_add_ps(acc0, _mm256_andnot_ps(sign_mask, d));
  }
  double total = HSum(_mm256_add_ps(acc0, acc1));
  float tail = 0.0f;
  for (; i < dim; ++i) tail += std::fabs(a[i] - b[i]);
  return total + static_cast<double>(tail);
}

PEXESO_AVX2 void Avx2L1Many(const float* q, const float* base, size_t n,
                            uint32_t dim, double* out) {
  for (size_t r = 0; r < n; ++r) {
    out[r] = Avx2L1(q, base + r * dim, dim);
  }
}

PEXESO_AVX2 void Avx2Norms(const float* base, size_t n, uint32_t dim,
                           float* out) {
  for (size_t r = 0; r < n; ++r) {
    const float* v = base + r * dim;
    out[r] = static_cast<float>(std::sqrt(Avx2Dot(v, v, dim)));
  }
}

// Many-to-many tiles, blocked four query rows deep: each 8-float chunk of a
// base row is loaded once and fed to four FMA accumulators, so the tile is
// ~4x less load-bound than four independent one-to-many sweeps.

PEXESO_AVX2 void Avx2SqL2Tile(const float* qs, size_t nq, const float* base,
                              size_t nv, uint32_t dim, double* out) {
  size_t r = 0;
  for (; r + 4 <= nq; r += 4) {
    const float* q0 = qs + (r + 0) * dim;
    const float* q1 = qs + (r + 1) * dim;
    const float* q2 = qs + (r + 2) * dim;
    const float* q3 = qs + (r + 3) * dim;
    for (size_t c = 0; c < nv; ++c) {
      const float* v = base + c * dim;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      uint32_t i = 0;
      for (; i + 8 <= dim; i += 8) {
        const __m256 bv = _mm256_loadu_ps(v + i);
        const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(q0 + i), bv);
        const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(q1 + i), bv);
        const __m256 d2 = _mm256_sub_ps(_mm256_loadu_ps(q2 + i), bv);
        const __m256 d3 = _mm256_sub_ps(_mm256_loadu_ps(q3 + i), bv);
        acc0 = _mm256_fmadd_ps(d0, d0, acc0);
        acc1 = _mm256_fmadd_ps(d1, d1, acc1);
        acc2 = _mm256_fmadd_ps(d2, d2, acc2);
        acc3 = _mm256_fmadd_ps(d3, d3, acc3);
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
      out[(r + 0) * nv + c] = HSum(acc0) + static_cast<double>(t0);
      out[(r + 1) * nv + c] = HSum(acc1) + static_cast<double>(t1);
      out[(r + 2) * nv + c] = HSum(acc2) + static_cast<double>(t2);
      out[(r + 3) * nv + c] = HSum(acc3) + static_cast<double>(t3);
    }
  }
  for (; r < nq; ++r) {
    Avx2SqL2Many(qs + r * dim, base, nv, dim, out + r * nv);
  }
}

PEXESO_AVX2 void Avx2DotTile(const float* qs, size_t nq, const float* base,
                             size_t nv, uint32_t dim, double* out) {
  size_t r = 0;
  for (; r + 4 <= nq; r += 4) {
    const float* q0 = qs + (r + 0) * dim;
    const float* q1 = qs + (r + 1) * dim;
    const float* q2 = qs + (r + 2) * dim;
    const float* q3 = qs + (r + 3) * dim;
    for (size_t c = 0; c < nv; ++c) {
      const float* v = base + c * dim;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      uint32_t i = 0;
      for (; i + 8 <= dim; i += 8) {
        const __m256 bv = _mm256_loadu_ps(v + i);
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(q0 + i), bv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(q1 + i), bv, acc1);
        acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(q2 + i), bv, acc2);
        acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(q3 + i), bv, acc3);
      }
      float t0 = 0.0f, t1 = 0.0f, t2 = 0.0f, t3 = 0.0f;
      for (; i < dim; ++i) {
        const float x = v[i];
        t0 += q0[i] * x;
        t1 += q1[i] * x;
        t2 += q2[i] * x;
        t3 += q3[i] * x;
      }
      out[(r + 0) * nv + c] = HSum(acc0) + static_cast<double>(t0);
      out[(r + 1) * nv + c] = HSum(acc1) + static_cast<double>(t1);
      out[(r + 2) * nv + c] = HSum(acc2) + static_cast<double>(t2);
      out[(r + 3) * nv + c] = HSum(acc3) + static_cast<double>(t3);
    }
  }
  for (; r < nq; ++r) {
    Avx2DotMany(qs + r * dim, base, nv, dim, out + r * nv);
  }
}

PEXESO_AVX2 void Avx2L1Tile(const float* qs, size_t nq, const float* base,
                            size_t nv, uint32_t dim, double* out) {
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  size_t r = 0;
  for (; r + 4 <= nq; r += 4) {
    const float* q0 = qs + (r + 0) * dim;
    const float* q1 = qs + (r + 1) * dim;
    const float* q2 = qs + (r + 2) * dim;
    const float* q3 = qs + (r + 3) * dim;
    for (size_t c = 0; c < nv; ++c) {
      const float* v = base + c * dim;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      uint32_t i = 0;
      for (; i + 8 <= dim; i += 8) {
        const __m256 bv = _mm256_loadu_ps(v + i);
        const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(q0 + i), bv);
        const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(q1 + i), bv);
        const __m256 d2 = _mm256_sub_ps(_mm256_loadu_ps(q2 + i), bv);
        const __m256 d3 = _mm256_sub_ps(_mm256_loadu_ps(q3 + i), bv);
        acc0 = _mm256_add_ps(acc0, _mm256_andnot_ps(sign_mask, d0));
        acc1 = _mm256_add_ps(acc1, _mm256_andnot_ps(sign_mask, d1));
        acc2 = _mm256_add_ps(acc2, _mm256_andnot_ps(sign_mask, d2));
        acc3 = _mm256_add_ps(acc3, _mm256_andnot_ps(sign_mask, d3));
      }
      float t0 = 0.0f, t1 = 0.0f, t2 = 0.0f, t3 = 0.0f;
      for (; i < dim; ++i) {
        const float x = v[i];
        t0 += std::fabs(q0[i] - x);
        t1 += std::fabs(q1[i] - x);
        t2 += std::fabs(q2[i] - x);
        t3 += std::fabs(q3[i] - x);
      }
      out[(r + 0) * nv + c] = HSum(acc0) + static_cast<double>(t0);
      out[(r + 1) * nv + c] = HSum(acc1) + static_cast<double>(t1);
      out[(r + 2) * nv + c] = HSum(acc2) + static_cast<double>(t2);
      out[(r + 3) * nv + c] = HSum(acc3) + static_cast<double>(t3);
    }
  }
  for (; r < nq; ++r) {
    Avx2L1Many(qs + r * dim, base, nv, dim, out + r * nv);
  }
}

#undef PEXESO_AVX2

constexpr Ops kAvx2Ops = {
    SimdLevel::kAvx2, &Avx2SqL2,    &Avx2SqL2Many,
    &Avx2Dot,         &Avx2DotMany, &Avx2CosCore,
    &Avx2L1,          &Avx2L1Many,  &Avx2Norms,
    &Avx2SqL2Tile,    &Avx2DotTile, &Avx2L1Tile,
};

}  // namespace

bool Avx2CpuSupported() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

const Ops& Avx2Ops() { return kAvx2Ops; }

}  // namespace pexeso::simd

#endif  // PEXESO_HAVE_AVX2_KERNELS
