#include "tensor/kernel_registry.hpp"

#include <atomic>
#include <cmath>

#include "runtime/config.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TSR_X86 1
#endif

namespace tsr {
namespace {

// ---------------------------------------------------------------------------
// Micro-kernels. The bit-identity discipline (docs/performance.md): per
// output element the FP sequence is `acc += a * b` with kk ascending, and
// the baseline build has no FMA contraction, so any variant that keeps
// multiply and add as separate rounded operations per element is
// memcmp-identical to scalar regardless of tile width.
// ---------------------------------------------------------------------------

void micro_scalar(std::int64_t kc, const float* ap, const float* bp,
                  std::int64_t ldb, float* acc) {
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * kMicroMR;
    const float* brow = bp + kk * ldb;
    for (std::int64_t ii = 0; ii < kMicroMR; ++ii) {
      const float aik = arow[ii];
#pragma omp simd
      for (std::int64_t jj = 0; jj < 8; ++jj) {
        acc[ii * 8 + jj] += aik * brow[jj];
      }
    }
  }
}

void axpy_scalar(float alpha, const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale_scalar(float* x, float alpha, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

// The reference Adam loop. Every SIMD form below keeps its operation order
// and rounds each mul, add, div and sqrt on its own; this file is compiled
// with -ffp-contract=off so no FMA can creep in (see CMakeLists.txt).
void adam_scalar(const AdamScalars& s, float* w, const float* g, float* m,
                 float* v, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float grad = g[i];
    m[i] = s.beta1 * m[i] + (1.0f - s.beta1) * grad;
    v[i] = s.beta2 * v[i] + (1.0f - s.beta2) * grad * grad;
    const float mhat = m[i] / s.bc1;
    const float vhat = v[i] / s.bc2;
    w[i] -= s.lr * (mhat / (std::sqrt(vhat) + s.eps) + s.weight_decay * w[i]);
  }
}

#ifdef TSR_X86

// AVX2 4x8 tile, separate mul+add — bit-identical to micro_scalar.
__attribute__((target("avx2"))) void micro_avx2(std::int64_t kc,
                                                const float* ap,
                                                const float* bp,
                                                std::int64_t ldb, float* acc) {
  __m256 c0 = _mm256_loadu_ps(acc);
  __m256 c1 = _mm256_loadu_ps(acc + 8);
  __m256 c2 = _mm256_loadu_ps(acc + 16);
  __m256 c3 = _mm256_loadu_ps(acc + 24);
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const __m256 b = _mm256_loadu_ps(bp + kk * ldb);
    const float* arow = ap + kk * 4;
    c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_broadcast_ss(arow + 0), b));
    c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_broadcast_ss(arow + 1), b));
    c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_broadcast_ss(arow + 2), b));
    c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_broadcast_ss(arow + 3), b));
  }
  _mm256_storeu_ps(acc, c0);
  _mm256_storeu_ps(acc + 8, c1);
  _mm256_storeu_ps(acc + 16, c2);
  _mm256_storeu_ps(acc + 24, c3);
}

// AVX-512 4x16 tile, same mul+add discipline — still memcmp-identical: the
// wider tile only changes which elements share a register, not any
// per-element rounding sequence.
__attribute__((target("avx512f"))) void micro_avx512(std::int64_t kc,
                                                     const float* ap,
                                                     const float* bp,
                                                     std::int64_t ldb,
                                                     float* acc) {
  __m512 c0 = _mm512_loadu_ps(acc);
  __m512 c1 = _mm512_loadu_ps(acc + 16);
  __m512 c2 = _mm512_loadu_ps(acc + 32);
  __m512 c3 = _mm512_loadu_ps(acc + 48);
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const __m512 b = _mm512_loadu_ps(bp + kk * ldb);
    const float* arow = ap + kk * 4;
    c0 = _mm512_add_ps(c0, _mm512_mul_ps(_mm512_set1_ps(arow[0]), b));
    c1 = _mm512_add_ps(c1, _mm512_mul_ps(_mm512_set1_ps(arow[1]), b));
    c2 = _mm512_add_ps(c2, _mm512_mul_ps(_mm512_set1_ps(arow[2]), b));
    c3 = _mm512_add_ps(c3, _mm512_mul_ps(_mm512_set1_ps(arow[3]), b));
  }
  _mm512_storeu_ps(acc, c0);
  _mm512_storeu_ps(acc + 16, c1);
  _mm512_storeu_ps(acc + 32, c2);
  _mm512_storeu_ps(acc + 48, c3);
}

// Elementwise ops are per-element independent, so the vectorized mul+add
// forms are bit-identical to scalar (remainder handled scalar).
__attribute__((target("avx2"))) void axpy_avx2(float alpha, const float* x,
                                               float* y, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, _mm256_loadu_ps(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2"))) void scale_avx2(float* x, float alpha,
                                                std::int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target("avx2"))) void adam_avx2(const AdamScalars& s, float* w,
                                               const float* g, float* m,
                                               float* v, std::int64_t n) {
  const __m256 b1 = _mm256_set1_ps(s.beta1);
  const __m256 b2 = _mm256_set1_ps(s.beta2);
  const __m256 one_b1 = _mm256_set1_ps(1.0f - s.beta1);
  const __m256 one_b2 = _mm256_set1_ps(1.0f - s.beta2);
  const __m256 bc1 = _mm256_set1_ps(s.bc1);
  const __m256 bc2 = _mm256_set1_ps(s.bc2);
  const __m256 eps = _mm256_set1_ps(s.eps);
  const __m256 lr = _mm256_set1_ps(s.lr);
  const __m256 wd = _mm256_set1_ps(s.weight_decay);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 grad = _mm256_loadu_ps(g + i);
    const __m256 mi = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(one_b1, grad));
    const __m256 vi = _mm256_add_ps(
        _mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
        _mm256_mul_ps(_mm256_mul_ps(one_b2, grad), grad));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    const __m256 mhat = _mm256_div_ps(mi, bc1);
    const __m256 vhat = _mm256_div_ps(vi, bc2);
    const __m256 wi = _mm256_loadu_ps(w + i);
    const __m256 step = _mm256_add_ps(
        _mm256_div_ps(mhat, _mm256_add_ps(_mm256_sqrt_ps(vhat), eps)),
        _mm256_mul_ps(wd, wi));
    _mm256_storeu_ps(w + i, _mm256_sub_ps(wi, _mm256_mul_ps(lr, step)));
  }
  adam_scalar(s, w + i, g + i, m + i, v + i, n - i);
}

__attribute__((target("avx512f"))) void adam_avx512(const AdamScalars& s,
                                                    float* w, const float* g,
                                                    float* m, float* v,
                                                    std::int64_t n) {
  const __m512 b1 = _mm512_set1_ps(s.beta1);
  const __m512 b2 = _mm512_set1_ps(s.beta2);
  const __m512 one_b1 = _mm512_set1_ps(1.0f - s.beta1);
  const __m512 one_b2 = _mm512_set1_ps(1.0f - s.beta2);
  const __m512 bc1 = _mm512_set1_ps(s.bc1);
  const __m512 bc2 = _mm512_set1_ps(s.bc2);
  const __m512 eps = _mm512_set1_ps(s.eps);
  const __m512 lr = _mm512_set1_ps(s.lr);
  const __m512 wd = _mm512_set1_ps(s.weight_decay);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 grad = _mm512_loadu_ps(g + i);
    const __m512 mi = _mm512_add_ps(_mm512_mul_ps(b1, _mm512_loadu_ps(m + i)),
                                    _mm512_mul_ps(one_b1, grad));
    const __m512 vi = _mm512_add_ps(
        _mm512_mul_ps(b2, _mm512_loadu_ps(v + i)),
        _mm512_mul_ps(_mm512_mul_ps(one_b2, grad), grad));
    _mm512_storeu_ps(m + i, mi);
    _mm512_storeu_ps(v + i, vi);
    const __m512 mhat = _mm512_div_ps(mi, bc1);
    const __m512 vhat = _mm512_div_ps(vi, bc2);
    const __m512 wi = _mm512_loadu_ps(w + i);
    // The zero-masked form: GCC 12's _mm512_sqrt_ps passes an undefined
    // pass-through vector that trips -Wmaybe-uninitialized.
    const __m512 root = _mm512_maskz_sqrt_ps(static_cast<__mmask16>(0xFFFF),
                                             vhat);
    const __m512 step =
        _mm512_add_ps(_mm512_div_ps(mhat, _mm512_add_ps(root, eps)),
                      _mm512_mul_ps(wd, wi));
    _mm512_storeu_ps(w + i, _mm512_sub_ps(wi, _mm512_mul_ps(lr, step)));
  }
  adam_scalar(s, w + i, g + i, m + i, v + i, n - i);
}

#endif  // TSR_X86

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

bool avail_always(const CpuFeatures&) { return true; }
#ifdef TSR_X86
bool avail_avx2(const CpuFeatures& f) { return f.avx2; }
bool avail_avx512(const CpuFeatures& f) { return f.avx2 && f.avx512f; }
#endif

// Auto-dispatch picks the LAST available entry, so keep the variants in
// ascending preference order.
const KernelVariant kTable[] = {
    // name, nr, micro, axpy, scale, adam, available
    {"scalar", 8, micro_scalar, axpy_scalar, scale_scalar, adam_scalar,
     avail_always},
#ifdef TSR_X86
    {"avx2", 8, micro_avx2, axpy_avx2, scale_avx2, adam_avx2, avail_avx2},
    {"avx512", 16, micro_avx512, axpy_avx2, scale_avx2, adam_avx512,
     avail_avx512},
#endif
};

std::atomic<const KernelVariant*> g_active{nullptr};

}  // namespace

std::span<const KernelVariant> kernel_variants() {
  return {kTable, sizeof(kTable) / sizeof(kTable[0])};
}

const KernelVariant* find_kernel_variant(std::string_view name) {
  for (const KernelVariant& v : kernel_variants()) {
    if (name == v.name) return &v;
  }
  return nullptr;
}

const KernelVariant& resolve_kernel_variant(std::string_view forced,
                                            const CpuFeatures& f) {
  if (!forced.empty()) {
    const KernelVariant* v = find_kernel_variant(forced);
    if (v != nullptr && v->available(f)) return *v;
    return kTable[0];  // graceful fallback: unknown or unavailable -> scalar
  }
  const KernelVariant* best = &kTable[0];
  for (const KernelVariant& v : kernel_variants()) {
    if (v.available(f)) best = &v;
  }
  return *best;
}

const KernelVariant& active_kernel_variant() {
  const KernelVariant* v = g_active.load(std::memory_order_acquire);
  if (v == nullptr) v = &force_kernel_variant(nullptr);
  return *v;
}

const KernelVariant& force_kernel_variant(const char* name) {
  const KernelVariant& v = resolve_kernel_variant(
      name != nullptr ? name : run_config().kernel, cpu_features());
  g_active.store(&v, std::memory_order_release);
  return v;
}

std::int64_t active_kernel_variant_index() {
  return &active_kernel_variant() - kTable;
}

}  // namespace tsr
