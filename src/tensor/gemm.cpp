#include "tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/worker_pool.hpp"
#include "tensor/aligned.hpp"
#include "tensor/kernel_registry.hpp"

namespace tsr {
namespace {

// Packed, cache-blocked GEMM built around one register-tile micro-kernel,
// selected per call from the kernel variant registry (kernel_registry.hpp):
// the variant supplies the micro-kernel and its register tile width nr.
//
// A is repacked into contiguous [k][kMR] micro-panels, scaled by alpha in
// the update form, so the inner loops run at unit stride regardless of the
// original leading dimensions, and a kMR x nr accumulator block lives in
// registers across the whole k extent of a panel. B is repacked into
// [k][nr] micro-panels except in the update form, where every full nr-wide
// panel of a row-major B is already nr contiguous floats per k row: the
// micro-kernel reads it where it lies, at row stride ldb. Only the ragged
// tail panel (zero-padded) is still packed there. Reading in place changes
// no floating-point operation.
//
// Numerics of every variant are bit-identical to plain scalar loops in
// which each k-term is one fused multiply-add (std::fma, one rounding).
// Two rounding disciplines exist and are preserved exactly:
//   * update form (N/N, T/N): alpha is folded into the packed A element
//     (alpha * a, rounded), and every k-term is fused straight into C in
//     ascending k order, c = fma(alpha * a, b, c) — the accumulator register
//     block is loaded FROM C per k-panel, so the per-element rounding
//     sequence matches the scalar i-k-j loops for any k blocking.
//   * dot form (N/T, T/T): the product is fused over the FULL k extent into
//     a zeroed accumulator, acc = fma(a, b, acc), and applied once, unfused,
//     as c += alpha * acc; k is deliberately not blocked here, because
//     splitting the sum would change the rounding.
// The tile shape appears in neither discipline, which is why the 8x16
// AVX-512 variant can still be memcmp-identical to the 8x8 scalar
// reference.
constexpr std::int64_t kMR = kMicroMR;  // register tile rows (all variants)
constexpr std::int64_t kNRMax = 16;     // widest tile in the registry
constexpr std::int64_t kKC = 256;       // k-panel depth (update form only)
constexpr std::int64_t kMC = 64;        // i-panel height
constexpr std::int64_t kNC = 256;       // j-panel width

std::int64_t round_up(std::int64_t x, std::int64_t q) {
  return (x + q - 1) / q * q;
}

// Packs the mc x kc block of op(A) at `a` as ceil(mc/kMR) micro-panels of
// layout [kk][kMR], each element scaled by `scale`, short panels
// zero-padded. Element (i, kk) of the block is a[i * rs + kk * ks].
void pack_a_panels(const float* a, std::int64_t rs, std::int64_t ks,
                   std::int64_t mc, std::int64_t kc, float scale, float* dst) {
  for (std::int64_t ip = 0; ip < mc; ip += kMR) {
    const std::int64_t mr = std::min(kMR, mc - ip);
    const float* src = a + ip * rs;
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float* col = src + kk * ks;
      float* out = dst + kk * kMR;
      std::int64_t ii = 0;
      for (; ii < mr; ++ii) out[ii] = scale * col[ii * rs];
      for (; ii < kMR; ++ii) out[ii] = 0.0f;
    }
    dst += kc * kMR;
  }
}

// op(A)[i0:i0+mc][k0:k0+kc] into [kk][kMR] panels (see pack_a_panels).
// trans: element (i, kk) of op(A) is a[kk*lda + i] instead of a[i*lda + kk].
void pack_a(bool trans, const float* a, std::int64_t lda, std::int64_t i0,
            std::int64_t k0, std::int64_t mc, std::int64_t kc, float scale,
            float* dst) {
  const std::int64_t rs = trans ? 1 : lda;
  const std::int64_t ks = trans ? lda : 1;
  pack_a_panels(a + i0 * rs + k0 * ks, rs, ks, mc, kc, scale, dst);
}

// Packs the kc x nc block of op(B) at `b` as ceil(nc/vnr) micro-panels of
// layout [kk][vnr], short panels zero-padded. Element (kk, j) of the block
// is b[kk * ks + j * js].
void pack_b_panels(const float* b, std::int64_t ks, std::int64_t js,
                   std::int64_t kc, std::int64_t nc, std::int64_t vnr,
                   float* dst) {
  for (std::int64_t jp = 0; jp < nc; jp += vnr) {
    const std::int64_t nr = std::min(vnr, nc - jp);
    const float* src = b + jp * js;
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float* row = src + kk * ks;
      float* out = dst + kk * vnr;
      std::int64_t jj = 0;
      for (; jj < nr; ++jj) out[jj] = row[jj * js];
      for (; jj < vnr; ++jj) out[jj] = 0.0f;
    }
    dst += kc * vnr;
  }
}

// op(B)[k0:k0+kc][j0:j0+nc] into [kk][vnr] panels (see pack_b_panels).
// trans: element (kk, j) of op(B) is b[j*ldb + kk] instead of b[kk*ldb + j].
void pack_b(bool trans, const float* b, std::int64_t ldb, std::int64_t k0,
            std::int64_t j0, std::int64_t kc, std::int64_t nc,
            std::int64_t vnr, float* dst) {
  const std::int64_t ks = trans ? 1 : ldb;
  const std::int64_t js = trans ? ldb : 1;
  pack_b_panels(b + k0 * ks + j0 * js, ks, js, kc, nc, vnr, dst);
}

// Worker-local scratch arena for the packed panels: one per thread (pool
// workers and fiber-scheduler workers each have their own), grown on first
// use and reused for every later gemm on that thread, so steady-state GEMM
// streams allocate nothing. The allocation/reuse counters are the proof —
// the same pattern comm::BufferPool uses — aggregated process-wide for
// gemm_scratch_stats(). Safe under the fiber backend: a fiber never yields
// mid-kernel and never migrates between worker threads. The arenas are
// kTensorAlignment-aligned so SIMD variants stream cache-line-aligned
// panels.
std::atomic<std::uint64_t> g_scratch_allocs{0};
std::atomic<std::uint64_t> g_scratch_reuses{0};

struct PackScratch {
  std::vector<float, AlignedAllocator<float>> apack;
  std::vector<float, AlignedAllocator<float>> bpack;

  // One acquisition per gemm kernel invocation on this thread: an
  // allocation if either panel buffer had to grow, a reuse otherwise. The
  // buffers only grow, so the zero fill of resize() runs once per growth,
  // not whenever the update and dot forms alternate sizes.
  void acquire(std::int64_t a_elems, std::int64_t b_elems) {
    const bool grow_a = static_cast<std::size_t>(a_elems) > apack.size();
    const bool grow_b = static_cast<std::size_t>(b_elems) > bpack.size();
    if (grow_a) apack.resize(static_cast<std::size_t>(a_elems));
    if (grow_b) bpack.resize(static_cast<std::size_t>(b_elems));
    (grow_a || grow_b ? g_scratch_allocs : g_scratch_reuses)
        .fetch_add(1, std::memory_order_relaxed);
  }
};

thread_local PackScratch t_scratch;

// Copies between a full kMR x NR tile of C (row stride ldc) and the
// accumulator (row stride NR). The extents are compile-time constants, so
// the copies become register moves, not one memcpy call per row.
template <std::int64_t NR>
void load_full_tile(const float* c, std::int64_t ldc, float* acc) {
  for (std::int64_t ii = 0; ii < kMR; ++ii) {
    for (std::int64_t jj = 0; jj < NR; ++jj) acc[ii * NR + jj] = c[ii * ldc + jj];
  }
}
template <std::int64_t NR>
void store_full_tile(const float* acc, float* c, std::int64_t ldc) {
  for (std::int64_t ii = 0; ii < kMR; ++ii) {
    for (std::int64_t jj = 0; jj < NR; ++jj) c[ii * ldc + jj] = acc[ii * NR + jj];
  }
}

// Loads the mr x nr tile of C into the accumulator (row stride vnr). A
// ragged tile zero-fills the lanes it does not load, so the micro-kernel
// never reads an uninitialised value; a full tile loads every lane.
void load_tile(const float* c, std::int64_t ldc, std::int64_t mr,
               std::int64_t nr, std::int64_t vnr, float* acc) {
  if (mr == kMR && nr == vnr) {
    if (vnr == 16) return load_full_tile<16>(c, ldc, acc);
    if (vnr == 8) return load_full_tile<8>(c, ldc, acc);
  }
  std::fill(acc, acc + kMR * kNRMax, 0.0f);
  for (std::int64_t ii = 0; ii < mr; ++ii) {
    for (std::int64_t jj = 0; jj < nr; ++jj) acc[ii * vnr + jj] = c[ii * ldc + jj];
  }
}

void store_tile(const float* acc, std::int64_t mr, std::int64_t nr,
                std::int64_t vnr, float* c, std::int64_t ldc) {
  if (mr == kMR && nr == vnr) {
    if (vnr == 16) return store_full_tile<16>(acc, c, ldc);
    if (vnr == 8) return store_full_tile<8>(acc, c, ldc);
  }
  for (std::int64_t ii = 0; ii < mr; ++ii) {
    for (std::int64_t jj = 0; jj < nr; ++jj) c[ii * ldc + jj] = acc[ii * vnr + jj];
  }
}

// Update form (N/N and T/N) over the output columns [jb, je): C += (alpha *
// op(A)) * B with B row-major, accumulating into C per k-panel with k
// strictly ascending.
// The full kernel is gemm_update_cols(0, n); a parallel caller hands each
// worker a disjoint nr-aligned column stripe. Per C element the
// floating-point sequence is the same for any k blocking and any column
// partition (each k-panel resumes from the value the last one stored), so
// every blocking produces bit-identical results.
void gemm_update_cols(const KernelVariant& v, bool a_trans, std::int64_t m,
                      std::int64_t k, float alpha,
                      const float* a, std::int64_t lda, const float* b,
                      std::int64_t ldb, float* c, std::int64_t ldc,
                      std::int64_t jb, std::int64_t je) {
  const std::int64_t vnr = v.nr;
  t_scratch.acquire(round_up(kMC, kMR) * kKC, round_up(kNC, vnr) * kKC);
  float* apack = t_scratch.apack.data();
  float* bpack = t_scratch.bpack.data();
  for (std::int64_t k0 = 0; k0 < k; k0 += kKC) {
    const std::int64_t kc = std::min(kKC, k - k0);
    for (std::int64_t j0 = jb; j0 < je; j0 += kNC) {
      const std::int64_t nc = std::min(kNC, je - j0);
      // Columns [0, nfull) of this j-panel are read in place; the rest are
      // packed at the start of bpack.
      const std::int64_t nfull = nc / vnr * vnr;
      if (nfull < nc) {
        pack_b(/*trans=*/false, b, ldb, k0, j0 + nfull, kc, nc - nfull, vnr,
               bpack);
      }
      for (std::int64_t i0 = 0; i0 < m; i0 += kMC) {
        const std::int64_t mc = std::min(kMC, m - i0);
        pack_a(a_trans, a, lda, i0, k0, mc, kc, alpha, apack);
        for (std::int64_t ip = 0; ip < mc; ip += kMR) {
          const std::int64_t mr = std::min(kMR, mc - ip);
          for (std::int64_t jp = 0; jp < nc; jp += vnr) {
            const std::int64_t nr = std::min(vnr, nc - jp);
            alignas(kTensorAlignment) float acc[kMR * kNRMax];
            float* cblk = c + (i0 + ip) * ldc + j0 + jp;
            load_tile(cblk, ldc, mr, nr, vnr, acc);
            const bool in_place = jp < nfull;
            v.micro(kc, apack + (ip / kMR) * kc * kMR,
                    in_place ? b + k0 * ldb + j0 + jp
                             : bpack + (jp - nfull) / vnr * kc * vnr,
                    in_place ? ldb : vnr, acc);
            store_tile(acc, mr, nr, vnr, cblk, ldc);
          }
        }
      }
    }
  }
}

// Dot form (N/T and T/T) over the output columns [jb, je): acc = op(A) .
// op(B) over the full k extent, then C += alpha * acc once per element.
void gemm_dot_cols(const KernelVariant& v, bool a_trans, bool b_trans,
                   std::int64_t m, std::int64_t k, float alpha, const float* a,
                   std::int64_t lda, const float* b, std::int64_t ldb,
                   float* c, std::int64_t ldc, std::int64_t jb,
                   std::int64_t je) {
  const std::int64_t vnr = v.nr;
  t_scratch.acquire(round_up(kMC, kMR) * k, round_up(kNC, vnr) * k);
  float* apack = t_scratch.apack.data();
  float* bpack = t_scratch.bpack.data();
  for (std::int64_t j0 = jb; j0 < je; j0 += kNC) {
    const std::int64_t nc = std::min(kNC, je - j0);
    pack_b(b_trans, b, ldb, 0, j0, k, nc, vnr, bpack);
    for (std::int64_t i0 = 0; i0 < m; i0 += kMC) {
      const std::int64_t mc = std::min(kMC, m - i0);
      pack_a(a_trans, a, lda, i0, 0, mc, k, 1.0f, apack);
      for (std::int64_t ip = 0; ip < mc; ip += kMR) {
        const std::int64_t mr = std::min(kMR, mc - ip);
        for (std::int64_t jp = 0; jp < nc; jp += vnr) {
          const std::int64_t nr = std::min(vnr, nc - jp);
          alignas(kTensorAlignment) float acc[kMR * kNRMax] = {};
          v.micro(k, apack + (ip / kMR) * k * kMR,
                  bpack + (jp / vnr) * k * vnr, vnr, acc);
          float* cblk = c + (i0 + ip) * ldc + j0 + jp;
          for (std::int64_t ii = 0; ii < mr; ++ii) {
            for (std::int64_t jj = 0; jj < nr; ++jj) {
              cblk[ii * ldc + jj] += alpha * acc[ii * vnr + jj];
            }
          }
        }
      }
    }
  }
}

// Below this, fan-out overhead beats the win even on a wide host.
constexpr std::int64_t kMinParallelFlops = 1 << 20;

// Dispatches the column range either serially or as disjoint nr-aligned
// stripes over the persistent worker pool. Each worker owns its stripe of C
// outright and packs into its own thread-local arena; per-element FP
// sequences are independent of the partition, so results are bit-identical
// for every worker count (and to the serial kernel).
template <typename ColsFn>
void run_cols(std::int64_t m, std::int64_t n, std::int64_t k, std::int64_t vnr,
              const ColsFn& cols) {
  const int budget = rt::gemm_parallelism();
  if (budget <= 1 || 2 * m * n * k < kMinParallelFlops || n < 2 * vnr) {
    cols(0, n);
    return;
  }
  // Stripe width: split n across the budget with 2x oversplit for load
  // balance, but never below a register tile nor above the cache panel.
  std::int64_t stripe =
      round_up((n + 2 * budget - 1) / (2 * budget), vnr);
  if (stripe > kNC) stripe = kNC;
  const int nstripes = static_cast<int>((n + stripe - 1) / stripe);
  rt::WorkerPool::instance().parallel_for(
      nstripes, budget, [&](int s) {
        const std::int64_t jb = s * stripe;
        cols(jb, std::min(n, jb + stripe));
      });
}

}  // namespace

GemmScratchStats gemm_scratch_stats() {
  return {g_scratch_allocs.load(), g_scratch_reuses.load()};
}

void gemm(Trans ta, Trans tb, std::int64_t m, std::int64_t n, std::int64_t k,
          float alpha, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float beta, float* c, std::int64_t ldc) {
  // Scale / clear C first so the kernels can be pure accumulators.
  if (beta == 0.0f) {
    if (ldc == n) {
      std::fill(c, c + m * n, 0.0f);
    } else {
      for (std::int64_t i = 0; i < m; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
      }
    }
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) c[i * ldc + j] *= beta;
    }
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;

  const KernelVariant& v = active_kernel_variant();
  if (tb == Trans::N) {
    run_cols(m, n, k, v.nr, [&](std::int64_t jb, std::int64_t je) {
      gemm_update_cols(v, ta == Trans::T, m, k, alpha, a, lda, b, ldb, c, ldc,
                       jb, je);
    });
  } else {
    run_cols(m, n, k, v.nr, [&](std::int64_t jb, std::int64_t je) {
      gemm_dot_cols(v, ta == Trans::T, true, m, k, alpha, a, lda, b, ldb, c,
                    ldc, jb, je);
    });
  }
}

namespace {
void matmul_dims(const Tensor& a, const Tensor& b, Trans ta, Trans tb,
                 std::int64_t& m, std::int64_t& n, std::int64_t& k) {
  check(a.ndim() == 2 && b.ndim() == 2, "matmul: operands must be 2-D");
  m = ta == Trans::N ? a.dim(0) : a.dim(1);
  const std::int64_t ka = ta == Trans::N ? a.dim(1) : a.dim(0);
  const std::int64_t kb = tb == Trans::N ? b.dim(0) : b.dim(1);
  n = tb == Trans::N ? b.dim(1) : b.dim(0);
  if (ka != kb) {
    throw std::invalid_argument("matmul: inner dimensions mismatch: " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
  k = ka;
}
}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b, Trans ta, Trans tb) {
  std::int64_t m, n, k;
  matmul_dims(a, b, ta, tb, m, n, k);
  Tensor c = Tensor::like(a, {m, n});
  if (c.is_phantom()) return c;
  gemm(ta, tb, m, n, k, 1.0f, a.data(), a.dim(1), b.data(), b.dim(1), 0.0f,
       c.data(), n);
  return c;
}

void matmul_acc(const Tensor& a, const Tensor& b, Tensor& c, Trans ta, Trans tb,
                float beta) {
  std::int64_t m, n, k;
  matmul_dims(a, b, ta, tb, m, n, k);
  check(c.ndim() == 2 && c.dim(0) == m && c.dim(1) == n,
        "matmul_acc: output shape mismatch");
  if (c.is_phantom()) return;
  gemm(ta, tb, m, n, k, 1.0f, a.data(), a.dim(1), b.data(), b.dim(1), beta,
       c.data(), n);
}

Tensor bmm(const Tensor& a, const Tensor& b, Trans ta, Trans tb) {
  check(a.ndim() == 3 && b.ndim() == 3, "bmm: operands must be 3-D");
  check(a.dim(0) == b.dim(0), "bmm: batch dimensions mismatch");
  const std::int64_t batch = a.dim(0);
  const std::int64_t m = ta == Trans::N ? a.dim(1) : a.dim(2);
  const std::int64_t ka = ta == Trans::N ? a.dim(2) : a.dim(1);
  const std::int64_t kb = tb == Trans::N ? b.dim(1) : b.dim(2);
  const std::int64_t n = tb == Trans::N ? b.dim(2) : b.dim(1);
  check(ka == kb, "bmm: inner dimensions mismatch");
  Tensor c = Tensor::like(a, {batch, m, n});
  if (c.is_phantom()) return c;
  const std::int64_t as = a.dim(1) * a.dim(2);
  const std::int64_t bs = b.dim(1) * b.dim(2);
  const std::int64_t cs = m * n;
  for (std::int64_t i = 0; i < batch; ++i) {
    gemm(ta, tb, m, n, ka, 1.0f, a.data() + i * as, a.dim(2), b.data() + i * bs,
         b.dim(2), 0.0f, c.data() + i * cs, n);
  }
  return c;
}

std::int64_t gemm_flops(std::int64_t m, std::int64_t n, std::int64_t k) {
  return 2 * m * n * k;
}

}  // namespace tsr
