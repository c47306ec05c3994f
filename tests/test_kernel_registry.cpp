// Kernel variant registry: table shape, the pure resolution rule (including
// graceful fallback when AVX or FMA3 is absent), the forced-variant dispatch
// matrix with every variant memcmp-equal to scalar, each GEMM k-term fused
// into one rounding, update-form GEMM reading B in
// place (against scalar and the packed path), the Adam and GELU kernels,
// the bf16 round-trip bounds the wire compression relies on, elementwise
// dispatch, and the aligned allocation contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "comm/buffer_pool.hpp"
#include "scoped_config.hpp"
#include "tensor/aligned.hpp"
#include "tensor/bf16.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernel_registry.hpp"
#include "tensor/kernels.hpp"

namespace tsr {
namespace {

// Deterministic positive test data (no RNG dependency): values in [0.5, 1.5)
// so sums never cancel.
Tensor filled(Shape shape, std::uint32_t salt) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const std::uint32_t h =
        (static_cast<std::uint32_t>(i) + salt) * 2654435761u;
    p[i] = 0.5f + static_cast<float>(h % 4096u) / 4096.0f;
  }
  return t;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// ---- table shape ------------------------------------------------------------

TEST(KernelRegistry, TableShapeAndInvariants) {
  const auto table = kernel_variants();
  ASSERT_GE(table.size(), 1u);
  EXPECT_STREQ(table[0].name, "scalar");
  for (const KernelVariant& v : table) {
    // Signature compatibility: every variant is fully populated.
    EXPECT_NE(v.micro, nullptr) << v.name;
    EXPECT_NE(v.axpy, nullptr) << v.name;
    EXPECT_NE(v.scale, nullptr) << v.name;
    EXPECT_NE(v.adam, nullptr) << v.name;
    EXPECT_NE(v.gelu, nullptr) << v.name;
    EXPECT_NE(v.available, nullptr) << v.name;
  }
  EXPECT_NE(find_kernel_variant("scalar"), nullptr);
  EXPECT_EQ(find_kernel_variant("no_such_kernel"), nullptr);
}

// ---- pure resolution rule (synthetic feature sets, no host cpuid) ----------

TEST(KernelRegistry, ResolveFallsBackToScalarWhenAvxAbsent) {
  const CpuFeatures none{};  // a host with no AVX at all
  // Forcing a SIMD variant on a baseline host degrades gracefully to scalar.
  EXPECT_STREQ(resolve_kernel_variant("avx2", none).name, "scalar");
  EXPECT_STREQ(resolve_kernel_variant("avx512", none).name, "scalar");
  // Unknown names too.
  EXPECT_STREQ(resolve_kernel_variant("no_such_kernel", none).name, "scalar");
  // Auto dispatch on a baseline host is scalar.
  EXPECT_STREQ(resolve_kernel_variant("", none).name, "scalar");
  // The SIMD GEMM micro-kernels are FMA instructions: AVX2 and AVX-512F
  // without FMA3 give scalar, forced or auto.
  CpuFeatures no_fma{};
  no_fma.avx2 = true;
  no_fma.avx512f = true;
  EXPECT_STREQ(resolve_kernel_variant("avx2", no_fma).name, "scalar");
  EXPECT_STREQ(resolve_kernel_variant("avx512", no_fma).name, "scalar");
  EXPECT_STREQ(resolve_kernel_variant("", no_fma).name, "scalar");
}

TEST(KernelRegistry, ResolvePrefersWidestAvailableVariant) {
  if (find_kernel_variant("avx2") == nullptr) {
    GTEST_SKIP() << "non-x86 build: registry has no SIMD variants";
  }
  CpuFeatures avx2_only{};
  avx2_only.avx2 = true;
  avx2_only.fma = true;
  EXPECT_STREQ(resolve_kernel_variant("", avx2_only).name, "avx2");
  EXPECT_STREQ(resolve_kernel_variant("avx2", avx2_only).name, "avx2");
  // avx512 requires avx512f; with only AVX2 it falls back to scalar.
  EXPECT_STREQ(resolve_kernel_variant("avx512", avx2_only).name, "scalar");

  CpuFeatures full{};
  full.avx2 = true;
  full.avx512f = true;
  full.fma = true;
  EXPECT_STREQ(resolve_kernel_variant("", full).name, "avx512");
  // The variants this registry no longer has are unknown names: scalar.
  for (const char* gone : {"avx2fma", "bf16", "int8"}) {
    EXPECT_STREQ(resolve_kernel_variant(gone, full).name, "scalar") << gone;
  }
}

TEST(KernelRegistry, ConfiguredKernelDrivesActiveVariant) {
  ScopedRunConfig cfg;
  cfg->kernel = "scalar";
  EXPECT_STREQ(force_kernel_variant(nullptr).name, "scalar");
  cfg->kernel = "no_such_kernel";
  EXPECT_STREQ(force_kernel_variant(nullptr).name, "scalar");
  cfg->kernel = "";
  EXPECT_STREQ(force_kernel_variant(nullptr).name,
               resolve_kernel_variant("", cpu_features()).name);
}

TEST(KernelRegistry, ActiveIndexMatchesTablePosition) {
  ScopedRunConfig restore;
  const auto table = kernel_variants();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (!table[i].available(cpu_features())) continue;
    force_kernel_variant(table[i].name);
    EXPECT_EQ(active_kernel_variant_index(), static_cast<std::int64_t>(i));
  }
}

// ---- forced-variant dispatch matrix ----------------------------------------

// Shapes exercise both rounding disciplines (update and dot forms), ragged
// register tiles for 8- and 16-wide variants, and the serial small-GEMM path.
struct GemmCase {
  Trans ta, tb;
  std::int64_t m, n, k;
};

const GemmCase kGemmCases[] = {
    {Trans::N, Trans::N, 37, 53, 41},  // update form, ragged everything
    {Trans::T, Trans::N, 24, 64, 32},  // update form, transposed A
    {Trans::N, Trans::T, 37, 53, 41},  // dot form
    {Trans::T, Trans::T, 16, 96, 80},  // dot form, transposed A
    {Trans::N, Trans::N, 3, 5, 300},   // deep k, sub-tile m and n
};

Tensor run_case(const GemmCase& gc, const Tensor& a, const Tensor& b) {
  return matmul(a, b, gc.ta, gc.tb);
}

Tensor case_a(const GemmCase& gc) {
  return gc.ta == Trans::N ? filled({gc.m, gc.k}, 1) : filled({gc.k, gc.m}, 1);
}
Tensor case_b(const GemmCase& gc) {
  return gc.tb == Trans::N ? filled({gc.k, gc.n}, 2) : filled({gc.n, gc.k}, 2);
}

TEST(KernelDispatch, EveryAvailableVariantMeetsItsGate) {
  ScopedRunConfig restore;
  for (const GemmCase& gc : kGemmCases) {
    const Tensor a = case_a(gc);
    const Tensor b = case_b(gc);
    force_kernel_variant("scalar");
    const Tensor ref = run_case(gc, a, b);
    for (const KernelVariant& v : kernel_variants()) {
      if (!v.available(cpu_features())) continue;
      ASSERT_STREQ(force_kernel_variant(v.name).name, v.name);
      const Tensor got = run_case(gc, a, b);
      EXPECT_TRUE(bit_identical(got, ref))
          << v.name << " must be bit-identical to scalar (case " << gc.m
          << "x" << gc.n << "x" << gc.k << ")";
    }
  }
}

TEST(KernelDispatch, ElementwiseOpsBitIdenticalAcrossVariants) {
  ScopedRunConfig restore;
  const std::int64_t n = 103;  // forces the SIMD remainder path
  const Tensor x = filled({n}, 3);
  force_kernel_variant("scalar");
  Tensor y_ref = filled({n}, 4);
  axpy(0.37f, x, y_ref);
  Tensor s_ref = filled({n}, 5);
  scale(s_ref, -1.25f);
  for (const KernelVariant& v : kernel_variants()) {
    if (!v.available(cpu_features())) continue;
    force_kernel_variant(v.name);
    Tensor y = filled({n}, 4);
    axpy(0.37f, x, y);
    EXPECT_TRUE(bit_identical(y, y_ref)) << v.name;
    Tensor s = filled({n}, 5);
    scale(s, -1.25f);
    EXPECT_TRUE(bit_identical(s, s_ref)) << v.name;
  }
}

// ---- update-form GEMM reading B in place -----------------------------------

// Signed values in [-1, 1): products of mixed signs make every rounding step
// count, so a changed operation order or a misread element shows in memcmp.
std::vector<float> signed_data(std::int64_t n, std::uint32_t salt) {
  std::vector<float> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint32_t h =
        (static_cast<std::uint32_t>(i) + salt) * 2654435761u;
    out[static_cast<std::size_t>(i)] =
        static_cast<float>(h % 8192u) / 4096.0f - 1.0f;
  }
  return out;
}

// N/N and T/N products whose row-major B is read in place: n is no multiple
// of 8 or 16 (so every j-panel ends in a packed tail), ldb > n (the row
// stride is not the width), k is no multiple of the 256-deep k-panel, the
// last two cases cross it (so B is read from row k0 > 0 with stride ldb),
// and the second case spans two 256-wide j-panels.
struct InPlaceCase {
  Trans ta;
  std::int64_t m, n, k;
};
const InPlaceCase kInPlaceCases[] = {
    {Trans::N, 37, 53, 150},
    {Trans::T, 21, 300, 77},
    {Trans::N, 5, 9, 3},
    {Trans::N, 11, 45, 300},
    {Trans::T, 6, 29, 513},
};

TEST(KernelDispatch, UpdateFormWithBInPlaceMatchesScalarAndPackedPath) {
  ScopedRunConfig restore;
  for (const InPlaceCase& ic : kInPlaceCases) {
    const std::int64_t lda = (ic.ta == Trans::N ? ic.k : ic.m) + 3;
    const std::int64_t ldb = ic.n + 11;
    const std::vector<float> a =
        signed_data((ic.ta == Trans::N ? ic.m : ic.k) * lda, 21);
    const std::vector<float> b = signed_data(ic.k * ldb, 22);
    // op(B)^T stored row-major [n][k], for the packed dot-form path.
    std::vector<float> bt(static_cast<std::size_t>(ic.n * ic.k));
    for (std::int64_t kk = 0; kk < ic.k; ++kk)
      for (std::int64_t j = 0; j < ic.n; ++j)
        bt[static_cast<std::size_t>(j * ic.k + kk)] =
            b[static_cast<std::size_t>(kk * ldb + j)];
    const std::vector<float> c0 = signed_data(ic.m * ic.n, 23);
    const std::size_t c_bytes = c0.size() * sizeof(float);
    // alpha = 1, beta = 0: the update form and the dot form both sum
    // 0 + a0*b0 + a1*b1 + ... in ascending k, so they agree bit for bit.
    const auto update_plain = [&] {
      std::vector<float> c(c0.size());
      gemm(ic.ta, Trans::N, ic.m, ic.n, ic.k, 1.0f, a.data(), lda, b.data(),
           ldb, 0.0f, c.data(), ic.n);
      return c;
    };
    const auto packed_plain = [&] {
      std::vector<float> c(c0.size());
      gemm(ic.ta, Trans::T, ic.m, ic.n, ic.k, 1.0f, a.data(), lda, bt.data(),
           ic.k, 0.0f, c.data(), ic.n);
      return c;
    };
    // alpha and beta both active: accumulation into an existing C.
    const auto update_acc = [&] {
      std::vector<float> c = c0;
      gemm(ic.ta, Trans::N, ic.m, ic.n, ic.k, -0.75f, a.data(), lda, b.data(),
           ldb, 0.5f, c.data(), ic.n);
      return c;
    };
    force_kernel_variant("scalar");
    const std::vector<float> ref_plain = update_plain();
    const std::vector<float> ref_acc = update_acc();
    for (const KernelVariant& v : kernel_variants()) {
      if (!v.available(cpu_features())) continue;
      force_kernel_variant(v.name);
      const std::string where = std::string(v.name) + " case " +
                                std::to_string(ic.m) + "x" +
                                std::to_string(ic.n) + "x" +
                                std::to_string(ic.k);
      const std::vector<float> plain = update_plain();
      EXPECT_EQ(std::memcmp(plain.data(), packed_plain().data(), c_bytes), 0)
          << where << ": in-place B differs from the packed path";
      EXPECT_EQ(std::memcmp(plain.data(), ref_plain.data(), c_bytes), 0)
          << where << ": in-place B differs from scalar";
      EXPECT_EQ(std::memcmp(update_acc().data(), ref_acc.data(), c_bytes), 0)
          << where << ": alpha/beta update differs from scalar";
    }
  }
}

// ---- k-panels, beta = 0 and ragged tiles -----------------------------------

// The scalar loops the packed kernel stands in for, one per rounding
// discipline (gemm.cpp): C is cleared (beta = 0) or scaled first; then the
// update form (tb = N) fuses (alpha * a) * b into C for k ascending, and the
// dot form (tb = T) fuses a * b into a sum from +0 over the whole k extent
// and adds alpha times the sum once, unfused. Each k-term is one std::fma,
// a single rounding. Every variant must match it bit for bit, whatever its
// k-panel depth and tile shape.
void naive_gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n,
                std::int64_t k, float alpha, const float* a, std::int64_t lda,
                const float* b, std::int64_t ldb, float beta, float* c,
                std::int64_t ldc) {
  const auto a_at = [&](std::int64_t i, std::int64_t kk) {
    return ta == Trans::N ? a[i * lda + kk] : a[kk * lda + i];
  };
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float& cij = c[i * ldc + j];
      if (beta == 0.0f) {
        cij = 0.0f;
      } else if (beta != 1.0f) {
        cij *= beta;
      }
      if (tb == Trans::N) {
        for (std::int64_t kk = 0; kk < k; ++kk) {
          cij = std::fma(alpha * a_at(i, kk), b[kk * ldb + j], cij);
        }
      } else {
        float acc = 0.0f;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          acc = std::fma(a_at(i, kk), b[j * ldb + kk], acc);
        }
        cij += alpha * acc;
      }
    }
  }
}

// One gemm call over caller-owned storage: op(A) is m x k, op(B) k x n, C
// has row stride ldc >= n. Columns [n, ldc) of C are padding the call must
// leave alone.
struct GateCall {
  Trans ta, tb;
  std::int64_t m, n, k, ldc;
  float alpha, beta;
  std::int64_t lda() const { return ta == Trans::N ? k : m; }
  std::int64_t ldb() const { return tb == Trans::N ? n : k; }
  std::int64_t a_size() const { return m * k; }
  std::int64_t b_size() const { return k * n; }

  std::vector<float> run(const std::vector<float>& a, const std::vector<float>& b,
                         std::vector<float> c, bool naive) const {
    (naive ? naive_gemm : gemm)(ta, tb, m, n, k, alpha, a.data(), lda(),
                                b.data(), ldb(), beta, c.data(), ldc);
    return c;
  }
  std::string where(const char* variant) const {
    return std::string(variant) + " " + (ta == Trans::N ? "N" : "T") +
           (tb == Trans::N ? "N" : "T") + " m=" + std::to_string(m) +
           " n=" + std::to_string(n) + " k=" + std::to_string(k) +
           " ldc=" + std::to_string(ldc) + " beta=" + std::to_string(beta);
  }
};

bool same_bytes(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

std::vector<float> abs_of(std::vector<float> v) {
  for (float& x : v) x = std::fabs(x);
  return v;
}

// k straddles the 256-deep update-form k-panel (255, 257) and spans three
// panels (513); m and n leave ragged register tiles for 8- and 16-wide
// variants and cross the 64-row i-panel and the 256-wide j-panel. C is
// cleared with ldc == n (one fill) and ldc > n (row by row), or scaled.
std::vector<GateCall> gate_calls() {
  struct Dims {
    std::int64_t m, n, k;
  };
  const Dims dims[] = {{37, 53, 255}, {9, 300, 257}, {70, 21, 513}};
  std::vector<GateCall> calls;
  for (const Dims& d : dims) {
    for (const Trans ta : {Trans::N, Trans::T}) {
      for (const Trans tb : {Trans::N, Trans::T}) {
        calls.push_back({ta, tb, d.m, d.n, d.k, d.n, 1.0f, 0.0f});
        calls.push_back({ta, tb, d.m, d.n, d.k, d.n + 5, -0.75f, 0.0f});
        calls.push_back({ta, tb, d.m, d.n, d.k, d.n + 5, -0.75f, 0.5f});
      }
    }
  }
  return calls;
}

TEST(KernelDispatch, KPanelsBetaZeroAndRaggedTilesMatchScalarAndNaive) {
  ScopedRunConfig restore;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const GateCall& gc : gate_calls()) {
    const std::vector<float> a = signed_data(gc.a_size(), 41);
    const std::vector<float> b = signed_data(gc.b_size(), 42);
    // beta = 0 must overwrite C, NaNs included; padding columns keep their
    // NaNs too, and memcmp compares them.
    std::vector<float> c0 = signed_data(gc.m * gc.ldc, 43);
    for (std::int64_t i = 0; i < gc.m; ++i) {
      for (std::int64_t j = gc.n; j < gc.ldc; ++j) c0[i * gc.ldc + j] = nan;
      if (gc.beta == 0.0f) c0[i * gc.ldc] = nan;
    }
    const std::vector<float> ref = gc.run(a, b, c0, /*naive=*/true);
    force_kernel_variant("scalar");
    const std::vector<float> scalar = gc.run(a, b, c0, /*naive=*/false);
    EXPECT_TRUE(same_bytes(scalar, ref)) << gc.where("scalar") << " vs naive";
    for (const KernelVariant& v : kernel_variants()) {
      if (!v.available(cpu_features())) continue;
      force_kernel_variant(v.name);
      const std::vector<float> got = gc.run(a, b, c0, /*naive=*/false);
      EXPECT_TRUE(same_bytes(got, scalar)) << gc.where(v.name) << " vs scalar";
      EXPECT_TRUE(same_bytes(got, ref)) << gc.where(v.name) << " vs naive";
    }
  }
}

TEST(KernelDispatch, GemmFusesEachProduct) {
  // Operands whose fused and unfused sums differ. With u = 1 + 2^-12,
  // u * u = 1 + 2^-11 + 2^-24 exactly; rounded on its own that is a tie,
  // which goes to the even 1 + 2^-11. Adding it to -(1 + 2^-11) gives 2^-24
  // when the product is fused and 0 when it is rounded first.
  // Update form: k = 1, beta = 1, C preloaded with -(1 + 2^-11).
  // Dot form: k = 2, a1 * b1 = -(1 + 2^-11) exactly, then a2 = b2 = u; the
  // sum is fused in ascending k, so reversing the order also gives 0.
  // m and n cover full and ragged tiles of every variant.
  ScopedRunConfig restore;
  const float u = 1.0f + std::ldexp(1.0f, -12);
  const float v = -(1.0f + std::ldexp(1.0f, -11));
  const float want = std::ldexp(1.0f, -24);
  const std::int64_t m = 11, n = 37;
  for (const KernelVariant& var : kernel_variants()) {
    if (!var.available(cpu_features())) continue;
    force_kernel_variant(var.name);
    for (const Trans ta : {Trans::N, Trans::T}) {
      for (const Trans tb : {Trans::N, Trans::T}) {
        const bool update = tb == Trans::N;
        const std::int64_t k = update ? 1 : 2;
        const GateCall gc{ta, tb, m, n, k, n, 1.0f, update ? 1.0f : 0.0f};
        // Column kk of op(A) holds a_k in every row, row kk of op(B) b_k in
        // every column.
        const float a_k[] = {update ? u : v, u};
        const float b_k[] = {update ? u : 1.0f, u};
        std::vector<float> a(static_cast<std::size_t>(gc.a_size()));
        std::vector<float> b(static_cast<std::size_t>(gc.b_size()));
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t kk = 0; kk < k; ++kk) {
            a[ta == Trans::N ? i * k + kk : kk * m + i] = a_k[kk];
          }
        }
        for (std::int64_t j = 0; j < n; ++j) {
          for (std::int64_t kk = 0; kk < k; ++kk) {
            b[update ? kk * n + j : j * k + kk] = b_k[kk];
          }
        }
        const std::vector<float> c0(static_cast<std::size_t>(m * n),
                                    update ? v : 0.0f);
        const std::vector<float> expect(c0.size(), want);
        EXPECT_TRUE(same_bytes(gc.run(a, b, c0, /*naive=*/true), expect))
            << gc.where("naive");
        EXPECT_TRUE(same_bytes(gc.run(a, b, c0, /*naive=*/false), expect))
            << gc.where(var.name);
      }
    }
  }
}

TEST(KernelDispatch, NegativeZeroProductsGivePositiveZero) {
  // Every product is -0.0 (negative A times +0.0 B). With beta = 0, C is
  // +0.0 plus a run of -0.0 terms, which IEEE rounds to +0.0 in both
  // disciplines; an accumulator seeded from the first product, or a C that
  // was never cleared, would leave -0.0 or the old value behind.
  ScopedRunConfig restore;
  for (const KernelVariant& v : kernel_variants()) {
    if (!v.available(cpu_features())) continue;
    force_kernel_variant(v.name);
    for (const Trans ta : {Trans::N, Trans::T}) {
      for (const Trans tb : {Trans::N, Trans::T}) {
        for (const std::int64_t pad : {0, 3}) {
          const GateCall gc{ta, tb, 13, 21, 257, 21 + pad, 1.0f, 0.0f};
          std::vector<float> a = abs_of(signed_data(gc.a_size(), 51));
          for (float& x : a) x = -0.25f - x;
          const std::vector<float> b(static_cast<std::size_t>(gc.b_size()), 0.0f);
          const std::vector<float> c0(static_cast<std::size_t>(gc.m * gc.ldc),
                                      -1.0f);
          std::vector<float> want = c0;
          for (std::int64_t i = 0; i < gc.m; ++i) {
            std::fill_n(want.begin() + i * gc.ldc, gc.n, 0.0f);
          }
          EXPECT_TRUE(same_bytes(gc.run(a, b, c0, /*naive=*/true), want))
              << gc.where("naive");
          EXPECT_TRUE(same_bytes(gc.run(a, b, c0, /*naive=*/false), want))
              << gc.where(v.name);
        }
      }
    }
  }
}

// Fills a stack region far deeper than any gemm frame with signalling NaNs,
// so an accumulator lane the GEMM code reads before writing holds one.
[[gnu::noinline]] void poison_stack() {
  std::uint32_t words[16384];
  std::fill_n(words, 16384, 0x7fa00000u);
  // The stores must happen although nothing reads them back.
  asm volatile("" : : "r"(words) : "memory");
}

TEST(KernelDispatch, RaggedTilesNeverReadUninitialisedAccumulatorLanes) {
  // The first tile of each call is ragged (m < 8 or n below the tile
  // width), so its accumulator starts as whatever the stack held. Lanes the
  // tile does not cover are never stored, so a missing zero fill does not
  // change C; it shows as FE_INVALID once those lanes hold a signalling NaN.
  ScopedRunConfig restore;
  const std::vector<float> a = signed_data(3 * 40, 61);
  const std::vector<float> b = signed_data(40 * 13, 62);
  for (const KernelVariant& v : kernel_variants()) {
    if (!v.available(cpu_features()) || v.micro == nullptr) continue;
    force_kernel_variant(v.name);
    for (const Trans tb : {Trans::N, Trans::T}) {
      for (const std::int64_t n : {5, 13}) {
        std::vector<float> c(static_cast<std::size_t>(3 * n), 0.25f);
        std::feclearexcept(FE_ALL_EXCEPT);
        poison_stack();
        gemm(Trans::N, tb, 3, n, 40, 1.0f, a.data(), 40, b.data(),
             tb == Trans::N ? n : 40, 1.0f, c.data(), n);
        const bool invalid = std::fetestexcept(FE_INVALID) != 0;
        EXPECT_FALSE(invalid) << v.name << (tb == Trans::N ? " NN" : " NT")
                              << " n=" << n;
      }
    }
  }
}

// ---- Adam -------------------------------------------------------------------

// The optimizer loop as it stood before the registry entry, kept as the
// reference: the scalar kernel must reproduce it and every variant the
// scalar kernel, bit for bit.
void reference_adam(const AdamScalars& s, float* w, const float* g, float* m,
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

struct AdamState {
  std::vector<float> w, m, v;
  bool operator==(const AdamState& o) const {
    const auto same = [](const std::vector<float>& x,
                         const std::vector<float>& y) {
      // Empty vectors may hold null data(), which memcmp must not see.
      return x.size() == y.size() &&
             (x.empty() ||
              std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
    };
    return same(w, o.w) && same(m, o.m) && same(v, o.v);
  }
};

// `steps` Adam steps over n elements, a fresh gradient each step. Odd
// lengths exercise every SIMD remainder; weight decay on and off.
AdamState run_adam(AdamFn adam, std::int64_t n, int steps, float wd) {
  AdamState st{signed_data(n, 31), std::vector<float>(static_cast<std::size_t>(n)),
               std::vector<float>(static_cast<std::size_t>(n))};
  for (int t = 1; t <= steps; ++t) {
    const std::vector<float> g = signed_data(n, 100u + static_cast<std::uint32_t>(t));
    const AdamScalars s{3e-3f, 0.9f, 0.999f, 1e-8f, wd,
                        1.0f - std::pow(0.9f, static_cast<float>(t)),
                        1.0f - std::pow(0.999f, static_cast<float>(t))};
    adam(s, st.w.data(), g.data(), st.m.data(), st.v.data(), n);
  }
  return st;
}

TEST(KernelDispatch, AdamBitIdenticalAcrossVariants) {
  const KernelVariant* scalar = find_kernel_variant("scalar");
  ASSERT_NE(scalar, nullptr);
  for (const float wd : {0.0f, 0.3f}) {
    for (const int steps : {1, 2, 7}) {
      for (std::int64_t n = 0; n <= 67; ++n) {
        const AdamState ref = run_adam(scalar->adam, n, steps, wd);
        EXPECT_TRUE(run_adam(reference_adam, n, steps, wd) == ref)
            << "scalar kernel departs from the reference loop: n=" << n
            << " steps=" << steps << " wd=" << wd;
        for (const KernelVariant& v : kernel_variants()) {
          if (!v.available(cpu_features())) continue;
          EXPECT_TRUE(run_adam(v.adam, n, steps, wd) == ref)
              << v.name << " Adam differs from scalar: n=" << n
              << " steps=" << steps << " wd=" << wd;
        }
      }
    }
  }
}

// ---- GELU -------------------------------------------------------------------

// Signed data spread over [-12, 12) (both saturated tails and the body),
// with every third element replaced by a special value; the offset by n
// moves each special across SIMD lanes and into the scalar tail.
std::vector<float> gelu_inputs(std::int64_t n) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm_min = std::numeric_limits<float>::denorm_min();
  const float specials[] = {0.0f,      -0.0f,      inf,       -inf,
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            denorm_min, -denorm_min, 1e-40f,    -1e-40f,
                            1e30f,     -1e30f,     9.0f,      -9.0f,
                            9.000001f, -9.000001f, 25.0f,     -25.0f,
                            6.0f,      -6.0f,      1e-20f,    -0.75f};
  constexpr std::int64_t kSpecials = sizeof(specials) / sizeof(specials[0]);
  std::vector<float> x = signed_data(n, 47);
  for (std::int64_t i = 0; i < n; ++i) {
    float& v = x[static_cast<std::size_t>(i)];
    v *= 12.0f;
    if (i % 3 == 0) v = specials[(i / 3 + n) % kSpecials];
  }
  return x;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(KernelDispatch, GeluBitIdenticalAcrossVariants) {
  const KernelVariant* scalar = find_kernel_variant("scalar");
  ASSERT_NE(scalar, nullptr);
  for (std::int64_t n = 0; n <= 67; ++n) {
    const std::vector<float> x = gelu_inputs(n);
    const auto len = static_cast<std::size_t>(n);
    std::vector<float> y_ref(len), d_ref(len), y_only(len);
    scalar->gelu(x.data(), y_ref.data(), d_ref.data(), n);
    scalar->gelu(x.data(), y_only.data(), nullptr, n);
    EXPECT_TRUE(same_bits(y_only, y_ref))
        << "scalar y depends on dydx: n=" << n;
    for (std::size_t i = 0; i < len; ++i) {
      const float v = x[i];
      if (std::isnan(v)) {
        EXPECT_TRUE(std::isnan(y_ref[i]) && std::isnan(d_ref[i])) << "n=" << n;
      } else if (std::isfinite(v) && v > 9.0f) {
        EXPECT_EQ(y_ref[i], v);
        EXPECT_EQ(d_ref[i], 1.0f);
      } else if (std::isfinite(v) && v < -9.0f) {
        EXPECT_EQ(y_ref[i], 0.0f);
        EXPECT_EQ(d_ref[i], 0.0f);
      }
    }
    for (const KernelVariant& v : kernel_variants()) {
      if (!v.available(cpu_features())) continue;
      std::vector<float> y(len), d(len), y_alone(len);
      v.gelu(x.data(), y.data(), d.data(), n);
      v.gelu(x.data(), y_alone.data(), nullptr, n);
      EXPECT_TRUE(same_bits(y, y_ref)) << v.name << " gelu y differs: n=" << n;
      EXPECT_TRUE(same_bits(d, d_ref))
          << v.name << " gelu dy/dx differs: n=" << n;
      EXPECT_TRUE(same_bits(y_alone, y_ref))
          << v.name << " gelu y without dy/dx differs: n=" << n;
    }
  }
}

// ---- bf16 primitives --------------------------------------------------------

TEST(Bf16, RoundTripWithinRelativeBound) {
  // bf16 keeps 8 mantissa bits: round-to-nearest error <= 2^-9 relative,
  // bounded here by the documented 2^-8.
  const float kBound = 1.0f / 256.0f;
  const float cases[] = {1.0f,      -1.0f,     0.3333333f, 3.1415926f,
                         1e-8f,     -2.5e6f,   65504.0f,   1.0000001f,
                         0.0078125f, -0.1f,    123456.78f};
  for (float x : cases) {
    const float rt = bf16_round(x);
    EXPECT_LE(std::fabs(rt - x), std::fabs(x) * kBound) << x;
    // Idempotent: a bf16-representable value encodes to itself.
    EXPECT_EQ(bf16_round(rt), rt) << x;
  }
  // Exactly representable values survive unchanged (sign, zero, powers of 2).
  EXPECT_EQ(bf16_round(0.0f), 0.0f);
  EXPECT_EQ(bf16_round(1.0f), 1.0f);
  EXPECT_EQ(bf16_round(-0.5f), -0.5f);
  EXPECT_EQ(bf16_round(256.0f), 256.0f);
}

TEST(Bf16, RoundsToNearestEven) {
  // 1 + 2^-9 sits exactly between bf16 neighbors 1.0 and 1 + 2^-8; RNE picks
  // the even mantissa (1.0). The next representable step up rounds away.
  EXPECT_EQ(bf16_round(1.0f + 1.0f / 512.0f), 1.0f);
  EXPECT_EQ(bf16_round(1.0f + 3.0f / 512.0f), 1.0f + 1.0f / 128.0f);
}

// ---- alignment contract -----------------------------------------------------

TEST(Alignment, TensorAndPayloadStorageIs64ByteAligned) {
  for (std::int64_t n : {1, 7, 31, 100, 4096}) {
    Tensor t({n});
    EXPECT_TRUE(is_tensor_aligned(t.data())) << n;
  }
  comm::BufferPool pool;
  auto buf = pool.acquire();
  buf->resize(129);
  EXPECT_TRUE(is_tensor_aligned(buf->data()));
  // Recycled buffers keep their aligned storage.
  pool.recycle(std::move(buf));
  auto again = pool.acquire();
  again->resize(7);
  EXPECT_TRUE(is_tensor_aligned(again->data()));
}

}  // namespace
}  // namespace tsr
