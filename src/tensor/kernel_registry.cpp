#include "tensor/kernel_registry.hpp"

#include <atomic>
#include <cmath>
#include <cstring>

#include "runtime/config.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TSR_X86 1
#endif

namespace tsr {
namespace {

// ---------------------------------------------------------------------------
// Micro-kernels. The bit-identity discipline (docs/performance.md): per
// output element the FP sequence is `acc = fma(a, b, acc)` with kk
// ascending. A fused multiply-add rounds once, the same in std::fma and in
// the vector FMA instructions, and the build has no implicit contraction
// (-ffp-contract=off), so any variant that makes each k-term one explicit
// FMA per element is memcmp-identical to scalar regardless of tile shape.
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
        acc[ii * 8 + jj] = std::fma(aik, brow[jj], acc[ii * 8 + jj]);
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

// GELU, tanh approximation, written as y = v * sigma(z) with
// z = 2u = 2c (v + a v^3) and sigma(z) = 1 / (1 + exp(-z)): the same
// function as 0.5 v (1 + tanh u). With e = exp(-|z|) and r = 1 / (1 + e),
// sigma is r for z >= 0 and e * r below, and sigma (1 - sigma) = e r^2 on
// both sides, so neither tail cancels.
// dy/dx = sigma + 2 v sigma (1 - sigma) u'.
//
// exp is computed here, not by libm: Cody-Waite reduction with a
// nearest-even k, the Cephes expf polynomial by Horner's rule, and 2^k
// written into the exponent bits. Every step is one rounded IEEE operation
// that the SIMD forms repeat in the same order, so all variants agree bit
// for bit and no result depends on the host's libm.
//
// Inputs are clamped to |w| <= kGeluClamp before z is formed, so exp's
// argument stays in [-67, 0] and every intermediate is a normal float.
// Beyond the clamp e is set to 0: y = v or -0, dy/dx = 1 or 0. On the
// positive side the float values already round to these limits; on the
// negative side the dropped terms are below 1e-26 in magnitude. The clamp
// maps NaN to a number, so a NaN input reaches y and dy/dx only through v
// itself: NaN in, the same NaN out, in every variant.
constexpr float kGeluClamp = 9.0f;
constexpr float kGeluTwoC = 1.5957691216057308f;  // 2 sqrt(2 / pi)
constexpr float kGeluA = 0.044715f;
constexpr float kGeluA3 = 0.134145f;  // 3 a
constexpr float kExpLog2e = 1.44269504088896341f;
constexpr float kExpLn2Hi = 0.693359375f;  // 9 bits: k * kExpLn2Hi is exact
constexpr float kExpLn2Lo = -2.12194440e-4f;
// (t + kExpRound) - kExpRound rounds t to the nearest integer, ties to even,
// for |t| < 2^22.
constexpr float kExpRound = 12582912.0f;  // 1.5 * 2^23
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

// exp(x) for x in [-67, 0].
inline float exp_bounded(float x) {
  const float k = (x * kExpLog2e + kExpRound) - kExpRound;
  const float r = (x - k * kExpLn2Hi) - k * kExpLn2Lo;
  float p = kExpP0;
  p = p * r + kExpP1;
  p = p * r + kExpP2;
  p = p * r + kExpP3;
  p = p * r + kExpP4;
  p = p * r + kExpP5;
  const float m = (p * (r * r) + r) + 1.0f;
  const std::int32_t bits = (static_cast<std::int32_t>(k) + 127) << 23;
  float scale;
  std::memcpy(&scale, &bits, sizeof(scale));
  return m * scale;
}

void gelu_scalar(const float* x, float* y, float* dydx, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float lo = v > -kGeluClamp ? v : -kGeluClamp;  // max(v, -C)
    const float w = lo < kGeluClamp ? lo : kGeluClamp;    // min(lo, C)
    const float z = kGeluTwoC * (w + ((kGeluA * w) * w) * w);
    const float e =
        std::fabs(v) > kGeluClamp ? 0.0f : exp_bounded(-std::fabs(z));
    const float r = 1.0f / (1.0f + e);
    const float er = e * r;
    const float sigma = z >= 0.0f ? r : er;
    y[i] = v * sigma;
    if (dydx != nullptr) {
      const float du = kGeluTwoC * (1.0f + (kGeluA3 * w) * w);
      dydx[i] = sigma + (v * (er * r)) * du;
    }
  }
}

#ifdef TSR_X86

static_assert(kMicroMR == 8, "the SIMD micro-kernels hold eight tile rows");

// AVX2 8x8 tile: eight ymm accumulators, one FMA per row and k. With two
// FMA ports of 4-cycle latency, eight independent chains keep both busy.
__attribute__((target("avx2,fma"))) void micro_avx2(std::int64_t kc,
                                                    const float* ap,
                                                    const float* bp,
                                                    std::int64_t ldb,
                                                    float* acc) {
  __m256 c0 = _mm256_loadu_ps(acc);
  __m256 c1 = _mm256_loadu_ps(acc + 8);
  __m256 c2 = _mm256_loadu_ps(acc + 16);
  __m256 c3 = _mm256_loadu_ps(acc + 24);
  __m256 c4 = _mm256_loadu_ps(acc + 32);
  __m256 c5 = _mm256_loadu_ps(acc + 40);
  __m256 c6 = _mm256_loadu_ps(acc + 48);
  __m256 c7 = _mm256_loadu_ps(acc + 56);
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const __m256 b = _mm256_loadu_ps(bp + kk * ldb);
    const float* arow = ap + kk * kMicroMR;
    c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 0), b, c0);
    c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 1), b, c1);
    c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 2), b, c2);
    c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 3), b, c3);
    c4 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 4), b, c4);
    c5 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 5), b, c5);
    c6 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 6), b, c6);
    c7 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 7), b, c7);
  }
  _mm256_storeu_ps(acc, c0);
  _mm256_storeu_ps(acc + 8, c1);
  _mm256_storeu_ps(acc + 16, c2);
  _mm256_storeu_ps(acc + 24, c3);
  _mm256_storeu_ps(acc + 32, c4);
  _mm256_storeu_ps(acc + 40, c5);
  _mm256_storeu_ps(acc + 48, c6);
  _mm256_storeu_ps(acc + 56, c7);
}

// AVX-512 8x16 tile, same discipline (the EVEX FMA is part of AVX-512F) —
// still memcmp-identical: the wider tile only changes which elements share
// a register, not any per-element rounding sequence.
__attribute__((target("avx512f"))) void micro_avx512(std::int64_t kc,
                                                     const float* ap,
                                                     const float* bp,
                                                     std::int64_t ldb,
                                                     float* acc) {
  __m512 c0 = _mm512_loadu_ps(acc);
  __m512 c1 = _mm512_loadu_ps(acc + 16);
  __m512 c2 = _mm512_loadu_ps(acc + 32);
  __m512 c3 = _mm512_loadu_ps(acc + 48);
  __m512 c4 = _mm512_loadu_ps(acc + 64);
  __m512 c5 = _mm512_loadu_ps(acc + 80);
  __m512 c6 = _mm512_loadu_ps(acc + 96);
  __m512 c7 = _mm512_loadu_ps(acc + 112);
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const __m512 b = _mm512_loadu_ps(bp + kk * ldb);
    const float* arow = ap + kk * kMicroMR;
    c0 = _mm512_fmadd_ps(_mm512_set1_ps(arow[0]), b, c0);
    c1 = _mm512_fmadd_ps(_mm512_set1_ps(arow[1]), b, c1);
    c2 = _mm512_fmadd_ps(_mm512_set1_ps(arow[2]), b, c2);
    c3 = _mm512_fmadd_ps(_mm512_set1_ps(arow[3]), b, c3);
    c4 = _mm512_fmadd_ps(_mm512_set1_ps(arow[4]), b, c4);
    c5 = _mm512_fmadd_ps(_mm512_set1_ps(arow[5]), b, c5);
    c6 = _mm512_fmadd_ps(_mm512_set1_ps(arow[6]), b, c6);
    c7 = _mm512_fmadd_ps(_mm512_set1_ps(arow[7]), b, c7);
  }
  _mm512_storeu_ps(acc, c0);
  _mm512_storeu_ps(acc + 16, c1);
  _mm512_storeu_ps(acc + 32, c2);
  _mm512_storeu_ps(acc + 48, c3);
  _mm512_storeu_ps(acc + 64, c4);
  _mm512_storeu_ps(acc + 80, c5);
  _mm512_storeu_ps(acc + 96, c6);
  _mm512_storeu_ps(acc + 112, c7);
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

// The GELU forms repeat gelu_scalar's operations in its order. max/min
// return their second operand when either is NaN, so v goes first: a NaN
// clamps to a number, as the scalar ternaries do.
__attribute__((target("avx2"))) inline __m256 exp_bounded_avx2(__m256 x) {
  const __m256 round = _mm256_set1_ps(kExpRound);
  const __m256 k = _mm256_sub_ps(
      _mm256_add_ps(_mm256_mul_ps(x, _mm256_set1_ps(kExpLog2e)), round), round);
  const __m256 hi = _mm256_mul_ps(k, _mm256_set1_ps(kExpLn2Hi));
  const __m256 lo = _mm256_mul_ps(k, _mm256_set1_ps(kExpLn2Lo));
  const __m256 r = _mm256_sub_ps(_mm256_sub_ps(x, hi), lo);
  __m256 p = _mm256_set1_ps(kExpP0);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP5));
  const __m256 m = _mm256_add_ps(
      _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
      _mm256_set1_ps(1.0f));
  const __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(k), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(m, _mm256_castsi256_ps(bits));
}

__attribute__((target("avx2"))) void gelu_avx2(const float* x, float* y,
                                               float* dydx, std::int64_t n) {
  const __m256 clamp = _mm256_set1_ps(kGeluClamp);
  const __m256 neg_clamp = _mm256_set1_ps(-kGeluClamp);
  const __m256 two_c = _mm256_set1_ps(kGeluTwoC);
  const __m256 a = _mm256_set1_ps(kGeluA);
  const __m256 a3 = _mm256_set1_ps(kGeluA3);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 sign = _mm256_set1_ps(-0.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 w = _mm256_min_ps(_mm256_max_ps(v, neg_clamp), clamp);
    const __m256 w3 = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(a, w), w), w);
    const __m256 z = _mm256_mul_ps(two_c, _mm256_add_ps(w, w3));
    // w == v unless |v| > C; unordered (NaN) counts as equal. These are the
    // lanes where gelu_scalar keeps exp.
    const __m256 kept = _mm256_cmp_ps(v, w, _CMP_EQ_UQ);
    const __m256 e =
        _mm256_and_ps(kept, exp_bounded_avx2(_mm256_or_ps(z, sign)));
    const __m256 r = _mm256_div_ps(one, _mm256_add_ps(one, e));
    const __m256 er = _mm256_mul_ps(e, r);
    const __m256 sigma =
        _mm256_blendv_ps(er, r, _mm256_cmp_ps(z, zero, _CMP_GE_OQ));
    _mm256_storeu_ps(y + i, _mm256_mul_ps(v, sigma));
    if (dydx != nullptr) {
      const __m256 du = _mm256_mul_ps(
          two_c, _mm256_add_ps(one, _mm256_mul_ps(_mm256_mul_ps(a3, w), w)));
      const __m256 slope = _mm256_mul_ps(v, _mm256_mul_ps(er, r));
      _mm256_storeu_ps(dydx + i,
                       _mm256_add_ps(sigma, _mm256_mul_ps(slope, du)));
    }
  }
  gelu_scalar(x + i, y + i, dydx != nullptr ? dydx + i : nullptr, n - i);
}

// AVX-512F has no float or (that is AVX-512DQ), so -|z| goes through the
// integer form, and the selects through masks. The max, min, or, cvt and
// shift use their zero-masked forms with every lane set: the plain ones pass
// GCC 12 an undefined vector that trips -Wmaybe-uninitialized.
constexpr __mmask16 kAllLanes = 0xFFFF;

__attribute__((target("avx512f"))) inline __m512 exp_bounded_avx512(__m512 x) {
  const __m512 round = _mm512_set1_ps(kExpRound);
  const __m512 k = _mm512_sub_ps(
      _mm512_add_ps(_mm512_mul_ps(x, _mm512_set1_ps(kExpLog2e)), round), round);
  const __m512 hi = _mm512_mul_ps(k, _mm512_set1_ps(kExpLn2Hi));
  const __m512 lo = _mm512_mul_ps(k, _mm512_set1_ps(kExpLn2Lo));
  const __m512 r = _mm512_sub_ps(_mm512_sub_ps(x, hi), lo);
  __m512 p = _mm512_set1_ps(kExpP0);
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpP1));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpP2));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpP3));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpP4));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpP5));
  const __m512 m = _mm512_add_ps(
      _mm512_add_ps(_mm512_mul_ps(p, _mm512_mul_ps(r, r)), r),
      _mm512_set1_ps(1.0f));
  const __m512i bits = _mm512_maskz_slli_epi32(
      kAllLanes,
      _mm512_add_epi32(_mm512_maskz_cvtps_epi32(kAllLanes, k),
                       _mm512_set1_epi32(127)),
      23);
  return _mm512_mul_ps(m, _mm512_castsi512_ps(bits));
}

__attribute__((target("avx512f"))) void gelu_avx512(const float* x, float* y,
                                                    float* dydx,
                                                    std::int64_t n) {
  const __m512 clamp = _mm512_set1_ps(kGeluClamp);
  const __m512 neg_clamp = _mm512_set1_ps(-kGeluClamp);
  const __m512 two_c = _mm512_set1_ps(kGeluTwoC);
  const __m512 a = _mm512_set1_ps(kGeluA);
  const __m512 a3 = _mm512_set1_ps(kGeluA3);
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 zero = _mm512_setzero_ps();
  const __m512i sign = _mm512_set1_epi32(static_cast<int>(0x80000000u));
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_loadu_ps(x + i);
    const __m512 w = _mm512_maskz_min_ps(
        kAllLanes, _mm512_maskz_max_ps(kAllLanes, v, neg_clamp), clamp);
    const __m512 w3 = _mm512_mul_ps(_mm512_mul_ps(_mm512_mul_ps(a, w), w), w);
    const __m512 z = _mm512_mul_ps(two_c, _mm512_add_ps(w, w3));
    const __mmask16 kept = _mm512_cmp_ps_mask(v, w, _CMP_EQ_UQ);  // as avx2
    const __m512 neg_abs_z = _mm512_castsi512_ps(
        _mm512_maskz_or_epi32(kAllLanes, _mm512_castps_si512(z), sign));
    const __m512 e = _mm512_maskz_mov_ps(kept, exp_bounded_avx512(neg_abs_z));
    const __m512 r = _mm512_div_ps(one, _mm512_add_ps(one, e));
    const __m512 er = _mm512_mul_ps(e, r);
    const __m512 sigma = _mm512_mask_blend_ps(
        _mm512_cmp_ps_mask(z, zero, _CMP_GE_OQ), er, r);
    _mm512_storeu_ps(y + i, _mm512_mul_ps(v, sigma));
    if (dydx != nullptr) {
      const __m512 du = _mm512_mul_ps(
          two_c, _mm512_add_ps(one, _mm512_mul_ps(_mm512_mul_ps(a3, w), w)));
      const __m512 slope = _mm512_mul_ps(v, _mm512_mul_ps(er, r));
      _mm512_storeu_ps(dydx + i,
                       _mm512_add_ps(sigma, _mm512_mul_ps(slope, du)));
    }
  }
  gelu_scalar(x + i, y + i, dydx != nullptr ? dydx + i : nullptr, n - i);
}

#endif  // TSR_X86

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

// The SIMD micro-kernels' FMA instructions need FMA3 (the avx512 entry's
// axpy and scale are the avx2 ones): a host without it resolves to scalar.
bool avail_always(const CpuFeatures&) { return true; }
#ifdef TSR_X86
bool avail_avx2(const CpuFeatures& f) { return f.avx2 && f.fma; }
bool avail_avx512(const CpuFeatures& f) {
  return f.avx2 && f.avx512f && f.fma;
}
#endif

// Auto-dispatch picks the LAST available entry, so keep the variants in
// ascending preference order.
const KernelVariant kTable[] = {
    // name, nr, micro, axpy, scale, adam, gelu, available
    {"scalar", 8, micro_scalar, axpy_scalar, scale_scalar, adam_scalar,
     gelu_scalar, avail_always},
#ifdef TSR_X86
    {"avx2", 8, micro_avx2, axpy_avx2, scale_avx2, adam_avx2, gelu_avx2,
     avail_avx2},
    {"avx512", 16, micro_avx512, axpy_avx2, scale_avx2, adam_avx512,
     gelu_avx512, avail_avx512},
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
