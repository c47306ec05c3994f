// Kernel variant registry: one dispatch table of signature-compatible
// GEMM / elementwise / activation / optimizer micro-kernels (the oalsfxpp
// mixer idiom).
// Every variant is memcmp-identical to scalar, so the choice changes host
// time only, never a result.
//
// Variants (GEMM register tile, rows x columns):
//   scalar  — 8x8, the portable reference kernel and the bit-identity
//             baseline; each k-term is one std::fma.
//   avx2    — 8x8 with _mm256_fmadd_ps (needs AVX2 and FMA3).
//   avx512  — 8x16 with _mm512_fmadd_ps (needs AVX-512F and FMA3).
// A fused multiply-add is correctly rounded (IEEE 754, C's fma), so the
// vector instructions and std::fma give the same bits, and no result
// depends on the host's libm.
//
// Selection: RunConfig::kernel (TESSERACT_KERNEL) forces a variant (an
// unavailable or unknown name falls back to scalar); with no override the
// best available variant is chosen from cpuid. The active variant is
// stamped into report envelopes (perf::stamp_envelope) and recorded as the
// `kernel.variant` gauge.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "tensor/cpu_features.hpp"

namespace tsr {

/// Register-tile height shared by every packed micro-kernel (panel layout
/// and zero-padding assume it; see gemm.cpp).
inline constexpr std::int64_t kMicroMR = 8;

/// Rank-kc update of a kMicroMR x nr register tile held in `acc` (row-major,
/// row stride = the variant's nr): acc[ii][jj] = fma(ap[kk][ii], bp[kk][jj],
/// acc[ii][jj]), one rounding per k-term, kk ascending. ap is the packed
/// [kk][kMicroMR] panel; row kk of the B panel starts at bp + kk * ldb —
/// ldb = nr for a packed [kk][nr] panel, or the leading dimension of a
/// row-major B read in place.
using MicroKernelFn = void (*)(std::int64_t kc, const float* ap,
                               const float* bp, std::int64_t ldb, float* acc);

/// Elementwise y[i] += alpha * x[i] and x[i] *= alpha.
using AxpyFn = void (*)(float alpha, const float* x, float* y, std::int64_t n);
using ScaleFn = void (*)(float* x, float alpha, std::int64_t n);

/// The scalars of one Adam step; bc1 / bc2 are the bias corrections
/// 1 - beta1^t / 1 - beta2^t.
struct AdamScalars {
  float lr;
  float beta1;
  float beta2;
  float eps;
  float weight_decay;
  float bc1;
  float bc2;
};

/// One Adam update with decoupled weight decay over n elements, per element
/// in this order, each operation rounded on its own:
///   m = beta1 * m + (1 - beta1) * g
///   v = beta2 * v + (1 - beta2) * g * g
///   w -= lr * ((m / bc1) / (sqrt(v / bc2) + eps) + weight_decay * w)
using AdamFn = void (*)(const AdamScalars& s, float* w, const float* g,
                        float* m, float* v, std::int64_t n);

/// GELU (tanh approximation) over n elements: y[i] = gelu(x[i]) and, when
/// dydx is non-null, dydx[i] = gelu'(x[i]). Computed as v * sigma(2u) with
/// an in-kernel exp, so no variant calls libm and all agree bit for bit.
/// Finite |x| > 9 gives the saturated values (y = x or -0, dy/dx = 1 or 0).
/// NaN in gives NaN out; +inf gives y = inf, and -inf's y and either
/// infinity's dy/dx are NaN (the inf * 0 of the formula).
using GeluFn = void (*)(const float* x, float* y, float* dydx, std::int64_t n);

struct KernelVariant {
  const char* name;
  std::int64_t nr;  ///< register tile width (micro-panel stride)
  MicroKernelFn micro;
  AxpyFn axpy;
  ScaleFn scale;
  AdamFn adam;
  GeluFn gelu;
  bool (*available)(const CpuFeatures& f);
};

/// The full table, in fixed registry order (scalar first).
std::span<const KernelVariant> kernel_variants();

/// Table lookup by name; nullptr when unknown.
const KernelVariant* find_kernel_variant(std::string_view name);

/// Pure resolution rule (unit-testable without touching the host cpuid):
/// a non-empty `forced` name selects that variant if it exists and is
/// available under `f`, else scalar (graceful fallback — e.g. AVX absent);
/// an empty name selects the last available variant in table order
/// (avx512 > avx2 > scalar).
const KernelVariant& resolve_kernel_variant(std::string_view forced,
                                            const CpuFeatures& f);

/// The variant every gemm/axpy/scale/adam/gelu dispatches through. First
/// call resolves RunConfig::kernel against the host cpu_features() and
/// caches the result.
const KernelVariant& active_kernel_variant();

/// Test/bench hook: forces the active variant by name (same fallback rule as
/// RunConfig::kernel); nullptr re-resolves from RunConfig::kernel. Returns
/// the variant actually activated. Not thread-safe against in-flight gemms —
/// call between kernels, as the dispatch sweep benches do.
const KernelVariant& force_kernel_variant(const char* name);

/// Index of the active variant in kernel_variants() — the value recorded as
/// the `kernel.variant` gauge (0 = scalar).
std::int64_t active_kernel_variant_index();

}  // namespace tsr
