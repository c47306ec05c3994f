#include "tensor/cpu_features.hpp"

namespace tsr {
namespace {

CpuFeatures detect() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2");
  f.avx512f = __builtin_cpu_supports("avx512f");
  f.fma = __builtin_cpu_supports("fma");
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect();
  return f;
}

std::string cpu_features_string() {
  const CpuFeatures& f = cpu_features();
  std::string s;
  if (f.avx2) s += "avx2";
  if (f.avx512f) s += s.empty() ? "avx512f" : ",avx512f";
  return s.empty() ? "baseline" : s;
}

}  // namespace tsr
