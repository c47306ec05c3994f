// Runtime CPU feature detection for the kernel variant registry.
//
// Detection happens once per process via the compiler's cpuid intrinsics
// (__builtin_cpu_supports); the baseline build stays plain x86-64, and SIMD
// variants are compiled with per-function target attributes so the binary
// runs unchanged on hosts without AVX.
#pragma once

#include <string>

namespace tsr {

struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
  bool fma = false;  ///< FMA3; the SIMD GEMM micro-kernels require it
};

/// Features of the host this process runs on (detected once, cached).
const CpuFeatures& cpu_features();

/// Compact human-readable list ("avx2,avx512f" / "baseline") for report
/// envelopes — lets cross-machine BENCH comparisons name the hardware tier.
/// It leaves out `fma`: the string keys the ledger's host series
/// (host_env_key), and the AVX2 parts Intel and AMD ship have FMA3 too.
std::string cpu_features_string();

}  // namespace tsr
