// Kernel variant registry: one dispatch table of signature-compatible
// GEMM / elementwise / optimizer micro-kernels (the oalsfxpp mixer idiom).
// The Adam kernel is memcmp-identical to scalar in every variant, including
// the tolerance-gated ones: only their GEMM numerics differ.
//
// Variants:
//   scalar  — the portable reference kernel; the bit-identity baseline.
//   avx2    — 4x8 tile with AVX2 intrinsics, separate mul+add (no FMA), so
//             every output element sees the exact FP sequence of scalar:
//             memcmp-identical, safe to auto-dispatch.
//   avx512  — 4x16 tile, same mul+add discipline, memcmp-identical.
//   avx2fma — 4x8 tile using fused multiply-add. Faster and *more* accurate
//             per element, but a different rounding sequence: tolerance gate,
//             never auto-dispatched (TESSERACT_KERNEL=avx2fma only).
//   bf16    — operands rounded to bfloat16 at pack time, fp32 accumulate
//             (the Mesh-TensorFlow mixed-precision recipe). Tolerance gate.
//   int8    — per-tensor symmetric int8 quantization with int32 accumulate;
//             the inference path. Tolerance gate.
//
// Selection: TESSERACT_KERNEL=<name> forces a variant (an unavailable or
// unknown name falls back to scalar); with no override the best available
// memcmp-identical variant is chosen from cpuid, so a default run is
// byte-identical to the scalar build on any host. The active variant is
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
inline constexpr std::int64_t kMicroMR = 4;

/// Rank-kc update of a kMicroMR x nr register tile held in `acc` (row-major,
/// row stride = the variant's nr): acc[ii][jj] += ap[kk][ii] * bp[kk][jj],
/// kk ascending. ap is the packed [kk][mr] panel; row kk of the B panel
/// starts at bp + kk * ldb — ldb = nr for a packed [kk][nr] panel, or the
/// leading dimension of a row-major B read in place.
using MicroKernelFn = void (*)(std::int64_t kc, const float* ap,
                               const float* bp, std::int64_t ldb, float* acc);

/// Storage-precision hook applied to each operand element at pack time
/// (before the alpha scale); null means identity (fp32 storage).
using PackQuantizeFn = float (*)(float x);

/// Whole-GEMM override for variants whose math does not decompose into the
/// packed fp32 panel scheme (int8): C += alpha * op(A) * op(B), with C
/// already beta-scaled by the caller.
using GemmFullFn = void (*)(bool a_trans, bool b_trans, std::int64_t m,
                            std::int64_t n, std::int64_t k, float alpha,
                            const float* a, std::int64_t lda, const float* b,
                            std::int64_t ldb, float* c, std::int64_t ldc);

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
struct KernelVariant {
  const char* name;
  std::int64_t nr;            ///< register tile width (micro-panel stride)
  MicroKernelFn micro;        ///< null only when gemm_full is set
  PackQuantizeFn quantize;    ///< storage precision at pack time (may be null)
  GemmFullFn gemm_full;       ///< whole-gemm override (may be null)
  AxpyFn axpy;
  ScaleFn scale;
  AdamFn adam;
  bool (*available)(const CpuFeatures& f);
  /// "memcmp" = results must be bit-identical to scalar; "tolerance" =
  /// precision legitimately changes, bounded by the documented gate
  /// (docs/performance.md) and enforced in tests/test_kernel_registry.cpp.
  const char* gate;
  /// Eligible for cpuid-based default dispatch (memcmp variants only).
  bool auto_dispatch;
};

/// The full table, in fixed registry order (scalar first).
std::span<const KernelVariant> kernel_variants();

/// Table lookup by name; nullptr when unknown.
const KernelVariant* find_kernel_variant(std::string_view name);

/// Pure resolution rule (unit-testable without touching the host cpuid):
/// a non-empty `forced` name selects that variant if it exists and is
/// available under `f`, else scalar (graceful fallback — e.g. AVX absent);
/// an empty name selects the last available auto_dispatch variant in table
/// order (avx512 > avx2 > scalar).
const KernelVariant& resolve_kernel_variant(std::string_view forced,
                                            const CpuFeatures& f);

/// The variant every gemm/axpy/scale/adam dispatches through. First call resolves
/// TESSERACT_KERNEL against the host cpu_features() and caches the result.
const KernelVariant& active_kernel_variant();

/// Test/bench hook: forces the active variant by name (same fallback rule as
/// the env override); nullptr re-resolves from the environment. Returns the
/// variant actually activated. Not thread-safe against in-flight gemms —
/// call between kernels, as the dispatch sweep benches do.
const KernelVariant& force_kernel_variant(const char* name);

/// Index of the active variant in kernel_variants() — the value recorded as
/// the `kernel.variant` gauge (0 = scalar).
std::int64_t active_kernel_variant_index();

}  // namespace tsr
