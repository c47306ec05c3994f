// Allocation guard for the tensor hot paths. This binary replaces the global
// operator new/delete with counting versions and asserts that the
// bookkeeping around the arithmetic never touches the heap:
//   * Tensor::dim and Tensor::at (every index form);
//   * passing check() calls, and the shape checks inside reshape, matmul,
//     matmul_acc and the elementwise ops (only the checks are counted: an op
//     that returns a fresh tensor may allocate exactly what constructing that
//     tensor allocates, nothing more);
//   * a second gemm at a fixed shape, once the pack arena is warm;
//   * a scoped timer while metrics are off (its name is a literal, turned
//     into a std::string only for a registry).
// A check that formats its message on every call (a std::string built from
// a literal longer than the small-string buffer, or shape_to_string) shows
// up here as one allocation per call.
//
// Tensor storage and comm payloads are the only users of aligned operator
// new. The paper-scale replay runs the real layers on phantom tensors, so
// it must make none of those: nothing at paper scale is materialised.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "parallel/context.hpp"
#include "perf/cost_model.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels.hpp"
#include "tensor/tensor.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_aligned_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (align != 0) g_aligned_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tsr {
namespace {

constexpr int kCalls = 100000;

// Heap allocations made by fn(); no gtest macro may run inside fn.
template <typename Fn>
std::uint64_t allocations_during(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(AllocGuard, CountingOperatorNewSeesAllocations) {
  // The guard itself works: a std::string too long for the small-string
  // buffer and a Tensor each reach the counter.
  EXPECT_EQ(allocations_during([] {
              std::string s("a message longer than fifteen chars");
              (void)s;
            }),
            1u);
  EXPECT_GT(allocations_during([] { Tensor t({4, 4}); }), 0u);
}

TEST(AllocGuard, DimAndAtNeverAllocate) {
  Tensor t1({64});
  Tensor t2({8, 8});
  Tensor t3({4, 4, 4});
  Tensor t4({2, 4, 2, 4});
  for (Tensor* t : {&t1, &t2, &t3, &t4}) t->fill(1.0f);
  double sum = 0.0;
  const std::uint64_t n = allocations_during([&] {
    for (int i = 0; i < kCalls; ++i) {
      const std::int64_t r = i % 4;
      sum += static_cast<double>(t3.dim(r % 3) + t4.dim(-1 - r) + t2.dim(-1));
      sum += t1.at(i % 64) + t2.at(r, i % 8) + t3.at(r, r, i % 4) +
             t4.at(r % 2, r, r % 2, i % 4);
      t2.at(r, r) = 1.0f;
    }
  });
  EXPECT_EQ(n, 0u) << "over " << kCalls << " calls each of dim() and at()";
  EXPECT_GT(sum, 0.0);
}

TEST(AllocGuard, PassingChecksNeverAllocate) {
  volatile bool ok = true;
  const std::uint64_t n = allocations_during([&] {
    for (int i = 0; i < kCalls; ++i) {
      check(ok, "a passing check with a message longer than the SSO buffer");
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(AllocGuard, ReshapeChecksNeverAllocate) {
  const Tensor t = Tensor::zeros({6, 8});
  // The shapes are built outside the counted region; reshape moves each one
  // into its view, so the only possible allocation is the check's message.
  std::vector<Shape> shapes;
  for (int i = 0; i < 1000; ++i) {
    shapes.push_back(i % 2 == 0 ? Shape{48} : Shape{2, 3, 8});
  }
  std::int64_t dims = 0;
  const std::uint64_t n = allocations_during([&] {
    for (Shape& s : shapes) dims += t.reshape(std::move(s)).ndim();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(dims, 500 * 1 + 500 * 3);
}

TEST(AllocGuard, MatmulShapeChecksNeverAllocate) {
  const std::int64_t m = 8, n = 16, k = 12;
  const Tensor a = Tensor::full({m, k}, 0.5f);
  const Tensor b = Tensor::full({k, n}, 0.25f);
  const Tensor bt = Tensor::full({n, k}, 0.25f);
  Tensor c = Tensor::zeros({m, n});
  matmul_acc(a, b, c);  // warm this thread's pack arena for both forms
  matmul_acc(a, bt, c, Trans::N, Trans::T);
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 1000; ++i) {
                matmul_acc(a, b, c);
                matmul_acc(a, bt, c, Trans::N, Trans::T, 0.5f);
              }
            }),
            0u);
  // matmul returns a fresh [m, n] tensor: it may allocate what building
  // that tensor allocates, and nothing for its checks.
  const std::uint64_t output = allocations_during([&] { Tensor out({m, n}); });
  std::uint64_t per_call = 0;
  for (int i = 0; i < 100; ++i) {
    per_call = std::max(per_call, allocations_during([&] { matmul(a, b); }));
  }
  EXPECT_EQ(per_call, output);
}

TEST(AllocGuard, ElementwiseShapeChecksNeverAllocate) {
  const Tensor x = Tensor::full({4, 32}, 0.5f);
  Tensor y = Tensor::zeros({4, 32});
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < kCalls; ++i) axpy(0.5f, x, y);
            }),
            0u);
  const std::uint64_t output =
      allocations_during([&] { Tensor out(x.shape()); });
  std::uint64_t per_call = 0;
  for (int i = 0; i < 100; ++i) {
    per_call = std::max(per_call, allocations_during([&] { add(x, y); }));
    per_call = std::max(per_call, allocations_during([&] { sub(x, y); }));
    per_call = std::max(per_call, allocations_during([&] { mul(x, y); }));
  }
  EXPECT_EQ(per_call, output);
}

TEST(AllocGuard, SteadyStateGemmNeverAllocates) {
  // Below the parallel-dispatch threshold, so the call runs on this thread
  // at any TESSERACT_WORKERS value.
  const std::int64_t m = 36, n = 40, k = 300;
  std::vector<float> a(static_cast<std::size_t>(m * k), 0.5f);
  std::vector<float> b(static_cast<std::size_t>(k * n), 0.25f);
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  for (const Trans tb : {Trans::N, Trans::T}) {
    const std::int64_t ldb = tb == Trans::N ? n : k;
    const auto call = [&] {
      gemm(Trans::N, tb, m, n, k, 1.0f, a.data(), k, b.data(), ldb, 0.0f,
           c.data(), n);
    };
    call();  // grows the arena on first use
    EXPECT_EQ(allocations_during(call), 0u)
        << (tb == Trans::N ? "update" : "dot") << " form";
  }
}

TEST(AllocGuard, DisabledTimersNeverAllocate) {
  rt::SimClock clock;
  EXPECT_EQ(allocations_during([&] {
              for (int i = 0; i < 1000; ++i) {
                obs::ScopedTimer t(nullptr, &clock,
                                   "layer.transformer_layer.forward.sim_seconds");
              }
            }),
            0u);
  // A layer's timer on a World without metrics.
  comm::World world(1);
  std::uint64_t n = 1;
  world.run([&](comm::Communicator& c) {
    par::TesseractContext ctx(c, 1, 1);
    n = allocations_during([&] {
      for (int i = 0; i < 1000; ++i) {
        obs::ScopedTimer t = ctx.timer("layer.linear.forward.sim_seconds");
      }
    });
  });
  EXPECT_EQ(n, 0u);
}

TEST(AllocGuard, PaperScaleReplayAllocatesNoTensorStorage) {
  // Table 1's shape (b = 12, s = 512, h = 3072, n = 64): the full fused QKV
  // weight alone would be 113 MB. The hand-written replay this one replaced
  // made 0 aligned allocations here; the real layers on phantoms match it.
  const perf::LayerDims dims{12, 512, 3072, 64};
  for (const perf::EvalConfig& cfg :
       {perf::EvalConfig{.scheme = perf::Scheme::Megatron1D, .p = 64,
                         .dims = dims, .layers = 2},
        perf::EvalConfig{.scheme = perf::Scheme::Tesseract, .q = 4, .d = 2,
                         .dims = dims, .layers = 2}}) {
    const std::uint64_t before = g_aligned_allocations.load();
    const perf::EvalResult r = perf::evaluate(cfg);
    EXPECT_EQ(g_aligned_allocations.load() - before, 0u) << cfg.shape_string();
    EXPECT_GT(r.fwd_seconds, 0.0);
  }
}

}  // namespace
}  // namespace tsr
