#include "vec/kernels.h"

#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

#include "vec/kernels_arch.h"

namespace pexeso {

namespace simd {
namespace {

// ------------------------------------------------------------ scalar tier
//
// Written to auto-vectorize under -O2/-O3: float accumulation in four
// independent lanes, no cross-iteration dependence, contiguous loads. Even
// without SIMD codegen this beats the virtual Metric::Dist path by skipping
// the per-pair float->double widening and the indirect call.

double ScalarSqL2(const float* a, const float* b, uint32_t dim) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  uint32_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  for (; i < dim; ++i) {
    const float d = a[i] - b[i];
    acc0 += d * d;
  }
  return static_cast<double>((acc0 + acc1) + (acc2 + acc3));
}

void ScalarSqL2Many(const float* q, const float* base, size_t n, uint32_t dim,
                    double* out) {
  for (size_t r = 0; r < n; ++r) {
    out[r] = ScalarSqL2(q, base + r * dim, dim);
  }
}

double ScalarDot(const float* a, const float* b, uint32_t dim) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  uint32_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < dim; ++i) acc0 += a[i] * b[i];
  return static_cast<double>((acc0 + acc1) + (acc2 + acc3));
}

void ScalarDotMany(const float* q, const float* base, size_t n, uint32_t dim,
                   double* out) {
  for (size_t r = 0; r < n; ++r) {
    out[r] = ScalarDot(q, base + r * dim, dim);
  }
}

double ScalarCosCore(const float* a, const float* b, uint32_t dim,
                     double* na2, double* nb2) {
  float dot = 0.0f, na = 0.0f, nb = 0.0f;
  for (uint32_t i = 0; i < dim; ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  *na2 = static_cast<double>(na);
  *nb2 = static_cast<double>(nb);
  return static_cast<double>(dot);
}

double ScalarL1(const float* a, const float* b, uint32_t dim) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  uint32_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    acc0 += std::fabs(a[i] - b[i]);
    acc1 += std::fabs(a[i + 1] - b[i + 1]);
    acc2 += std::fabs(a[i + 2] - b[i + 2]);
    acc3 += std::fabs(a[i + 3] - b[i + 3]);
  }
  for (; i < dim; ++i) acc0 += std::fabs(a[i] - b[i]);
  return static_cast<double>((acc0 + acc1) + (acc2 + acc3));
}

void ScalarL1Many(const float* q, const float* base, size_t n, uint32_t dim,
                  double* out) {
  for (size_t r = 0; r < n; ++r) {
    out[r] = ScalarL1(q, base + r * dim, dim);
  }
}

void ScalarNorms(const float* base, size_t n, uint32_t dim, float* out) {
  for (size_t r = 0; r < n; ++r) {
    const float* v = base + r * dim;
    out[r] = static_cast<float>(std::sqrt(ScalarDot(v, v, dim)));
  }
}

// Tiles process four query rows per pass over a base row, so each base row
// is read from memory once per row-block instead of once per query row.

void ScalarSqL2Tile(const float* qs, size_t nq, const float* base, size_t nv,
                    uint32_t dim, double* out) {
  size_t r = 0;
  for (; r + 4 <= nq; r += 4) {
    const float* q0 = qs + (r + 0) * dim;
    const float* q1 = qs + (r + 1) * dim;
    const float* q2 = qs + (r + 2) * dim;
    const float* q3 = qs + (r + 3) * dim;
    for (size_t c = 0; c < nv; ++c) {
      const float* v = base + c * dim;
      float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
      for (uint32_t i = 0; i < dim; ++i) {
        const float x = v[i];
        const float d0 = q0[i] - x;
        const float d1 = q1[i] - x;
        const float d2 = q2[i] - x;
        const float d3 = q3[i] - x;
        a0 += d0 * d0;
        a1 += d1 * d1;
        a2 += d2 * d2;
        a3 += d3 * d3;
      }
      out[(r + 0) * nv + c] = static_cast<double>(a0);
      out[(r + 1) * nv + c] = static_cast<double>(a1);
      out[(r + 2) * nv + c] = static_cast<double>(a2);
      out[(r + 3) * nv + c] = static_cast<double>(a3);
    }
  }
  for (; r < nq; ++r) {
    ScalarSqL2Many(qs + r * dim, base, nv, dim, out + r * nv);
  }
}

void ScalarDotTile(const float* qs, size_t nq, const float* base, size_t nv,
                   uint32_t dim, double* out) {
  size_t r = 0;
  for (; r + 4 <= nq; r += 4) {
    const float* q0 = qs + (r + 0) * dim;
    const float* q1 = qs + (r + 1) * dim;
    const float* q2 = qs + (r + 2) * dim;
    const float* q3 = qs + (r + 3) * dim;
    for (size_t c = 0; c < nv; ++c) {
      const float* v = base + c * dim;
      float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
      for (uint32_t i = 0; i < dim; ++i) {
        const float x = v[i];
        a0 += q0[i] * x;
        a1 += q1[i] * x;
        a2 += q2[i] * x;
        a3 += q3[i] * x;
      }
      out[(r + 0) * nv + c] = static_cast<double>(a0);
      out[(r + 1) * nv + c] = static_cast<double>(a1);
      out[(r + 2) * nv + c] = static_cast<double>(a2);
      out[(r + 3) * nv + c] = static_cast<double>(a3);
    }
  }
  for (; r < nq; ++r) {
    ScalarDotMany(qs + r * dim, base, nv, dim, out + r * nv);
  }
}

void ScalarL1Tile(const float* qs, size_t nq, const float* base, size_t nv,
                  uint32_t dim, double* out) {
  size_t r = 0;
  for (; r + 4 <= nq; r += 4) {
    const float* q0 = qs + (r + 0) * dim;
    const float* q1 = qs + (r + 1) * dim;
    const float* q2 = qs + (r + 2) * dim;
    const float* q3 = qs + (r + 3) * dim;
    for (size_t c = 0; c < nv; ++c) {
      const float* v = base + c * dim;
      float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
      for (uint32_t i = 0; i < dim; ++i) {
        const float x = v[i];
        a0 += std::fabs(q0[i] - x);
        a1 += std::fabs(q1[i] - x);
        a2 += std::fabs(q2[i] - x);
        a3 += std::fabs(q3[i] - x);
      }
      out[(r + 0) * nv + c] = static_cast<double>(a0);
      out[(r + 1) * nv + c] = static_cast<double>(a1);
      out[(r + 2) * nv + c] = static_cast<double>(a2);
      out[(r + 3) * nv + c] = static_cast<double>(a3);
    }
  }
  for (; r < nq; ++r) {
    ScalarL1Many(qs + r * dim, base, nv, dim, out + r * nv);
  }
}

constexpr Ops kScalarOps = {
    SimdLevel::kScalar, &ScalarSqL2,     &ScalarSqL2Many,
    &ScalarDot,         &ScalarDotMany,  &ScalarCosCore,
    &ScalarL1,          &ScalarL1Many,   &ScalarNorms,
    &ScalarSqL2Tile,    &ScalarDotTile,  &ScalarL1Tile,
};

// ------------------------------------------------------------ dispatch

/// Case-insensitive level name; false when `s` names no known level, so an
/// unrecognized override falls back to detection instead of silently
/// pinning the scalar tier.
bool ParseLevelName(const char* s, SimdLevel* out) {
  std::string lower(s);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "scalar") *out = SimdLevel::kScalar;
  else if (lower == "avx2") *out = SimdLevel::kAvx2;
  else if (lower == "neon") *out = SimdLevel::kNeon;
  else return false;
  return true;
}

SimdLevel DetectLevel() {
  if (const char* env = std::getenv("PEXESO_SIMD")) {
    SimdLevel wanted;
    if (ParseLevelName(env, &wanted) && SimdLevelAvailable(wanted)) {
      return wanted;
    }
    // Unknown or unavailable override: fall through to detection so a
    // pinned setting stays portable across machines.
  }
#if defined(PEXESO_HAVE_AVX2_KERNELS)
  if (SimdLevelAvailable(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
#endif
#if defined(PEXESO_HAVE_NEON_KERNELS)
  if (SimdLevelAvailable(SimdLevel::kNeon)) return SimdLevel::kNeon;
#endif
  return SimdLevel::kScalar;
}

}  // namespace

const Ops& ScalarOps() { return kScalarOps; }

const Ops* OpsFor(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return &kScalarOps;
    case SimdLevel::kAvx2:
#if defined(PEXESO_HAVE_AVX2_KERNELS)
      if (SimdLevelAvailable(SimdLevel::kAvx2)) return &Avx2Ops();
#endif
      return nullptr;
    case SimdLevel::kNeon:
#if defined(PEXESO_HAVE_NEON_KERNELS)
      if (SimdLevelAvailable(SimdLevel::kNeon)) return &NeonOps();
#endif
      return nullptr;
  }
  return nullptr;
}

const Ops& ActiveOps() {
  static const Ops* active = OpsFor(DetectLevel());
  return *active;
}

}  // namespace simd

SimdLevel ActiveSimdLevel() { return simd::ActiveOps().level; }

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "unknown";
}

bool SimdLevelAvailable(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
#if defined(PEXESO_HAVE_AVX2_KERNELS)
      return simd::Avx2CpuSupported();
#else
      return false;
#endif
    case SimdLevel::kNeon:
#if defined(PEXESO_HAVE_NEON_KERNELS)
      return true;  // NEON is baseline on AArch64
#else
      return false;
#endif
  }
  return false;
}

void ComputeNorms(const float* base, size_t n, uint32_t dim, float* out) {
  simd::ActiveOps().norms(base, n, dim, out);
}

void KernelSet::DistMany(const float* q, const float* base, size_t n,
                         uint32_t dim, double* out) const {
  switch (kind) {
    case MetricKind::kL2:
      ops->sq_l2_many(q, base, n, dim, out);
      for (size_t r = 0; r < n; ++r) out[r] = std::sqrt(out[r]);
      return;
    case MetricKind::kCosine:
      for (size_t r = 0; r < n; ++r) {
        double na2 = 0.0, nb2 = 0.0;
        const double dot = ops->cos_core(q, base + r * dim, dim, &na2, &nb2);
        out[r] = std::sqrt(CosCmpFromCore(dot, na2, nb2));
      }
      return;
    case MetricKind::kL1:
      ops->l1_many(q, base, n, dim, out);
      return;
  }
}

void KernelSet::DistTile(const float* qs, size_t nq, const float* base,
                         size_t nv, uint32_t dim, double* out) const {
  if (kind == MetricKind::kCosine) {
    // Compute both sides' norms once per tile, then share the normed path.
    std::vector<float> qn32(nq), bn(nv);
    ops->norms(qs, nq, dim, qn32.data());
    ops->norms(base, nv, dim, bn.data());
    std::vector<double> qn(nq);
    for (size_t r = 0; r < nq; ++r) qn[r] = static_cast<double>(qn32[r]);
    DistTileNormed(qs, qn.data(), base, bn.data(), nq, nv, dim, out);
    return;
  }
  CmpTileNormed(qs, nullptr, base, nullptr, nq, nv, dim, out);
  if (kind == MetricKind::kL2) {
    for (size_t i = 0; i < nq * nv; ++i) out[i] = std::sqrt(out[i]);
  }
}

void KernelSet::DistTileNormed(const float* qs, const double* qnorms,
                               const float* base, const float* base_norms,
                               size_t nq, size_t nv, uint32_t dim,
                               double* out) const {
  CmpTileNormed(qs, qnorms, base, base_norms, nq, nv, dim, out);
  if (kind != MetricKind::kL1) {
    for (size_t i = 0; i < nq * nv; ++i) out[i] = std::sqrt(out[i]);
  }
}

void KernelSet::CmpTileNormed(const float* qs, const double* qnorms,
                              const float* base, const float* base_norms,
                              size_t nq, size_t nv, uint32_t dim,
                              double* out) const {
  switch (kind) {
    case MetricKind::kL2:
      ops->sq_l2_tile(qs, nq, base, nv, dim, out);
      return;
    case MetricKind::kCosine:
      ops->dot_tile(qs, nq, base, nv, dim, out);
      for (size_t r = 0; r < nq; ++r) {
        const double qn = qnorms[r];
        double* row = out + r * nv;
        for (size_t c = 0; c < nv; ++c) {
          const double denom = qn * static_cast<double>(base_norms[c]);
          if (denom <= 0.0) {
            row[c] = 2.0;  // zero vector: dist^2 = 2 (Cmp1Normed semantics)
            continue;
          }
          double cosv = row[c] / denom;
          if (cosv > 1.0) cosv = 1.0;
          if (cosv < -1.0) cosv = -1.0;
          row[c] = 2.0 - 2.0 * cosv;
        }
      }
      return;
    case MetricKind::kL1:
      ops->l1_tile(qs, nq, base, nv, dim, out);
      return;
  }
}

void KernelSet::DistManyNormed(const float* q, double qnorm, const float* base,
                               const float* base_norms, size_t n, uint32_t dim,
                               double* out) const {
  if (kind != MetricKind::kCosine) {
    DistMany(q, base, n, dim, out);
    return;
  }
  ops->dot_many(q, base, n, dim, out);
  for (size_t r = 0; r < n; ++r) {
    const double denom = qnorm * static_cast<double>(base_norms[r]);
    if (denom <= 0.0) {
      out[r] = std::sqrt(2.0);
      continue;
    }
    double c = out[r] / denom;
    if (c > 1.0) c = 1.0;
    if (c < -1.0) c = -1.0;
    out[r] = std::sqrt(2.0 - 2.0 * c);
  }
}

namespace {

const KernelSet* MakeTable(SimdLevel level) {
  const simd::Ops* ops = simd::OpsFor(level);
  if (ops == nullptr) return nullptr;
  static KernelSet tables[3][3];  // [level][kind]
  KernelSet* row = tables[static_cast<uint8_t>(level)];
  row[0] = KernelSet{MetricKind::kL2, ops};
  row[1] = KernelSet{MetricKind::kCosine, ops};
  row[2] = KernelSet{MetricKind::kL1, ops};
  return row;
}

}  // namespace

const KernelSet* GetKernels(MetricKind kind, SimdLevel level) {
  static const KernelSet* rows[3] = {
      MakeTable(SimdLevel::kScalar),
      MakeTable(SimdLevel::kAvx2),
      MakeTable(SimdLevel::kNeon),
  };
  const KernelSet* row = rows[static_cast<uint8_t>(level)];
  return row == nullptr ? nullptr : row + static_cast<uint8_t>(kind);
}

const KernelSet* GetKernels(MetricKind kind) {
  return GetKernels(kind, ActiveSimdLevel());
}

}  // namespace pexeso
