// GEMM correctness against a naive reference for all transpose combinations,
// alpha/beta handling, batched matmul, and a parameterized size sweep.
#include <gtest/gtest.h>

#include <cstring>

#include "scoped_config.hpp"
#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/kernels.hpp"

namespace tsr {
namespace {

// Naive reference: C = alpha * op(A) op(B) + beta * C.
Tensor naive(Trans ta, Trans tb, const Tensor& a, const Tensor& b) {
  const std::int64_t m = ta == Trans::N ? a.dim(0) : a.dim(1);
  const std::int64_t k = ta == Trans::N ? a.dim(1) : a.dim(0);
  const std::int64_t n = tb == Trans::N ? b.dim(1) : b.dim(0);
  Tensor c = Tensor::zeros({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t t = 0; t < k; ++t) {
        const float av = ta == Trans::N ? a.at(i, t) : a.at(t, i);
        const float bv = tb == Trans::N ? b.at(t, j) : b.at(j, t);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

struct GemmCase {
  std::int64_t m, n, k;
};

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, AllTransposeCombinationsMatchNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(101);
  for (Trans ta : {Trans::N, Trans::T}) {
    for (Trans tb : {Trans::N, Trans::T}) {
      Tensor a = ta == Trans::N ? random_normal({m, k}, rng)
                                : random_normal({k, m}, rng);
      Tensor b = tb == Trans::N ? random_normal({k, n}, rng)
                                : random_normal({n, k}, rng);
      Tensor got = matmul(a, b, ta, tb);
      Tensor want = naive(ta, tb, a, b);
      EXPECT_LT(max_abs_diff(got, want), 1e-3f)
          << "m=" << m << " n=" << n << " k=" << k << " ta=" << (ta == Trans::T)
          << " tb=" << (tb == Trans::T);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmSweep,
    ::testing::Values(GemmCase{1, 1, 1}, GemmCase{1, 5, 3}, GemmCase{7, 1, 2},
                      GemmCase{3, 3, 3}, GemmCase{8, 8, 8}, GemmCase{5, 9, 7},
                      GemmCase{64, 64, 64}, GemmCase{65, 63, 66},
                      GemmCase{128, 16, 96}, GemmCase{17, 129, 31}));

TEST(Gemm, BetaScalesExistingC) {
  Tensor a = Tensor::from({1, 0, 0, 1}, {2, 2});  // identity
  Tensor b = Tensor::from({1, 2, 3, 4}, {2, 2});
  Tensor c = Tensor::full({2, 2}, 10.0f);
  gemm(Trans::N, Trans::N, 2, 2, 2, 1.0f, a.data(), 2, b.data(), 2, 0.5f,
       c.data(), 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 6.0f);   // 0.5*10 + 1
  EXPECT_FLOAT_EQ(c.at(1, 1), 9.0f);   // 0.5*10 + 4
}

TEST(Gemm, AlphaScalesProduct) {
  Tensor a = Tensor::ones({2, 2});
  Tensor b = Tensor::ones({2, 2});
  Tensor c = Tensor::zeros({2, 2});
  gemm(Trans::N, Trans::N, 2, 2, 2, 3.0f, a.data(), 2, b.data(), 2, 0.0f,
       c.data(), 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 6.0f);
}

TEST(Gemm, ZeroAlphaLeavesBetaTerm) {
  Tensor a = Tensor::ones({2, 2});
  Tensor b = Tensor::ones({2, 2});
  Tensor c = Tensor::full({2, 2}, 4.0f);
  gemm(Trans::N, Trans::N, 2, 2, 2, 0.0f, a.data(), 2, b.data(), 2, 1.0f,
       c.data(), 2);
  EXPECT_FLOAT_EQ(c.at(0, 0), 4.0f);
}

TEST(Gemm, MatmulAccAccumulates) {
  Rng rng(5);
  Tensor a = random_normal({4, 3}, rng);
  Tensor b = random_normal({3, 5}, rng);
  Tensor c = Tensor::zeros({4, 5});
  matmul_acc(a, b, c);
  matmul_acc(a, b, c);
  Tensor twice = scaled(matmul(a, b), 2.0f);
  EXPECT_LT(max_abs_diff(c, twice), 1e-4f);
}

TEST(Gemm, MatmulRejectsMismatch) {
  Tensor a({2, 3});
  Tensor b({4, 5});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  EXPECT_THROW(matmul(a.reshape({6}), b), std::invalid_argument);
}

TEST(Gemm, BmmMatchesPerSliceMatmul) {
  Rng rng(9);
  Tensor a = random_normal({3, 4, 5}, rng);
  Tensor b = random_normal({3, 5, 2}, rng);
  Tensor c = bmm(a, b);
  ASSERT_EQ(c.dim(0), 3);
  for (std::int64_t s = 0; s < 3; ++s) {
    Tensor as = slice_block(a.reshape({12, 5}), s * 4, 0, 4, 5);
    Tensor bs = slice_block(b.reshape({15, 2}), s * 5, 0, 5, 2);
    Tensor cs = slice_block(c.reshape({12, 2}), s * 4, 0, 4, 2);
    EXPECT_LT(max_abs_diff(cs, matmul(as, bs)), 1e-4f);
  }
}

TEST(Gemm, BmmTransposeB) {
  Rng rng(11);
  Tensor a = random_normal({2, 3, 4}, rng);
  Tensor b = random_normal({2, 5, 4}, rng);
  Tensor c = bmm(a, b, Trans::N, Trans::T);
  EXPECT_EQ(c.dim(1), 3);
  EXPECT_EQ(c.dim(2), 5);
  Tensor a0 = slice_block(a.reshape({6, 4}), 0, 0, 3, 4);
  Tensor b0 = slice_block(b.reshape({10, 4}), 0, 0, 5, 4);
  Tensor c0 = slice_block(c.reshape({6, 5}), 0, 0, 3, 5);
  EXPECT_LT(max_abs_diff(c0, matmul(a0, b0, Trans::N, Trans::T)), 1e-4f);
}

TEST(Gemm, FlopCount) {
  EXPECT_EQ(gemm_flops(2, 3, 4), 48);
  EXPECT_EQ(gemm_flops(0, 3, 4), 0);
}

// ---- parallel dispatch ----------------------------------------------------

// Sizes above the parallel-dispatch flop threshold, both rounding forms
// (update: tb == N, dot: tb == T), must be byte-identical to the W=1 result:
// column striping never changes any element's FP sequence.
TEST(GemmParallel, BitIdenticalAcrossWorkerCounts) {
  const std::int64_t m = 96, n = 160, k = 80;  // 2*m*n*k ≈ 2.5M flops
  Rng rng(11);
  Tensor a = random_normal({m, k}, rng);
  Tensor b = random_normal({k, n}, rng);
  Tensor bt = random_normal({n, k}, rng);

  ScopedRunConfig cfg;
  cfg->workers = 1;
  Tensor c_upd_1 = matmul(a, b);
  Tensor c_dot_1 = matmul(a, bt, Trans::N, Trans::T);
  for (const int w : {2, 4}) {
    cfg->workers = w;
    Tensor c_upd = matmul(a, b);
    Tensor c_dot = matmul(a, bt, Trans::N, Trans::T);
    EXPECT_EQ(std::memcmp(c_upd.data(), c_upd_1.data(),
                          static_cast<std::size_t>(m * n) * sizeof(float)),
              0)
        << "update form differs at W=" << w;
    EXPECT_EQ(std::memcmp(c_dot.data(), c_dot_1.data(),
                          static_cast<std::size_t>(m * n) * sizeof(float)),
              0)
        << "dot form differs at W=" << w;
  }
}

// A steady-state stream of same-shape GEMMs must hit the worker-local pack
// arenas, not the allocator: >99% of acquisitions are reuses.
TEST(GemmScratch, SteadyStateReusesArena) {
  const std::int64_t m = 64, n = 64, k = 64;
  Rng rng(12);
  Tensor a = random_normal({m, k}, rng);
  Tensor b = random_normal({k, n}, rng);
  Tensor c({m, n});
  // Warm the arena on this thread, then measure a long stream.
  matmul_acc(a, b, c, Trans::N, Trans::N, 0.0f);
  const GemmScratchStats before = gemm_scratch_stats();
  const int kIters = 500;
  for (int i = 0; i < kIters; ++i) {
    matmul_acc(a, b, c, Trans::N, Trans::N, 0.0f);
  }
  const GemmScratchStats after = gemm_scratch_stats();
  const std::uint64_t allocs = after.allocations - before.allocations;
  const std::uint64_t reuses = after.reuses - before.reuses;
  EXPECT_GE(reuses + allocs, static_cast<std::uint64_t>(kIters));
  EXPECT_GT(static_cast<double>(reuses),
            0.99 * static_cast<double>(reuses + allocs));
}

}  // namespace
}  // namespace tsr
