// Google-benchmark micro harness: real host wall-clock of the distributed
// matmul algorithms on the virtual cluster (small sizes — the host is the
// substrate here, not the simulated machine) and of the core GEMM kernel.
// After the registered benchmarks run, a TESSERACT_WORKERS sweep times the
// parallel GEMM at 1/2/4 workers, verifies byte-identity against W=1, and
// writes GFLOP/s + speedups to BENCH_pdgemm_micro.json. Last, every kernel
// variant's GEMM and GELU are timed and memcmp-checked against scalar, and
// its bare micro-kernel is timed on an L1-resident panel, into
// BENCH_kernel_variants.json. The binary exits 1 if a worker count or an
// available variant fails its bit-identity check.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "pdgemm/cannon.hpp"
#include "pdgemm/solomonik25d.hpp"
#include "pdgemm/summa.hpp"
#include "pdgemm/tesseract_mm.hpp"
#include "perf/export.hpp"
#include "runtime/config.hpp"
#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/kernel_registry.hpp"

using namespace tsr;

namespace {

void BM_SerialGemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = random_normal({n, n}, rng);
  Tensor b = random_normal({n, n}, rng);
  for (auto _ : state) {
    Tensor c = matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_SerialGemm)->Arg(64)->Arg(128)->Arg(256);

void BM_TesseractMatmul(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const std::int64_t n = 48;
  Rng rng(2);
  Tensor a = random_normal({n, n}, rng);
  Tensor b = random_normal({n, n}, rng);
  for (auto _ : state) {
    comm::World world(q * q * d);
    world.run([&](comm::Communicator& c) {
      pdg::TesseractComms tc = pdg::TesseractComms::create(c, q, d);
      Tensor ab = pdg::distribute_a_layout(tc, a);
      Tensor bb = pdg::distribute_b_layout(tc, b);
      Tensor cb = pdg::tesseract_ab_local(tc, ab, bb);
      benchmark::DoNotOptimize(cb.data());
    });
  }
}
BENCHMARK(BM_TesseractMatmul)
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({4, 1})
    ->Args({4, 2});

void BM_SummaMatmul(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  const std::int64_t n = 48;
  Rng rng(3);
  Tensor a = random_normal({n, n}, rng);
  Tensor b = random_normal({n, n}, rng);
  for (auto _ : state) {
    comm::World world(q * q);
    world.run([&](comm::Communicator& c) {
      pdg::Grid2DComms g = pdg::Grid2DComms::create(c, q);
      Tensor ab = pdg::block_of(a, q, q, g.i, g.j);
      Tensor bb = pdg::block_of(b, q, q, g.i, g.j);
      Tensor cb = pdg::summa_ab_local(g, ab, bb);
      benchmark::DoNotOptimize(cb.data());
    });
  }
}
BENCHMARK(BM_SummaMatmul)->Arg(2)->Arg(4);

void BM_CannonMatmul(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  const std::int64_t n = 48;
  Rng rng(4);
  Tensor a = random_normal({n, n}, rng);
  Tensor b = random_normal({n, n}, rng);
  for (auto _ : state) {
    comm::World world(q * q);
    world.run([&](comm::Communicator& c) {
      pdg::Grid2DComms g = pdg::Grid2DComms::create(c, q);
      Tensor ab = pdg::block_of(a, q, q, g.i, g.j);
      Tensor bb = pdg::block_of(b, q, q, g.i, g.j);
      Tensor cb = pdg::cannon_local(g, std::move(ab), std::move(bb));
      benchmark::DoNotOptimize(cb.data());
    });
  }
}
BENCHMARK(BM_CannonMatmul)->Arg(2)->Arg(4);

void BM_Solomonik25D(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  const int d = static_cast<int>(state.range(1));
  const std::int64_t n = 48;
  Rng rng(5);
  Tensor a = random_normal({n, n}, rng);
  Tensor b = random_normal({n, n}, rng);
  for (auto _ : state) {
    comm::World world(q * q * d);
    world.run([&](comm::Communicator& c) {
      pdg::TesseractComms tc = pdg::TesseractComms::create(c, q, d);
      Tensor ab = pdg::block_of(a, q, q, tc.i, tc.j);
      Tensor bb = pdg::block_of(b, q, q, tc.i, tc.j);
      Tensor cb = pdg::solomonik25d_local(tc, std::move(ab), std::move(bb));
      benchmark::DoNotOptimize(cb.data());
    });
  }
}
BENCHMARK(BM_Solomonik25D)->Args({2, 1})->Args({2, 2})->Args({4, 2});

// GEMM worker sweep: the register-blocked kernel split into column stripes
// over the persistent pool. Bit-identity to W=1 is checked, not assumed:
// returns false when some worker count's result differs.
bool run_worker_sweep() {
  bool all_identical = true;
  const std::int64_t n = 384;  // ~113 MFLOP, well above the parallel cutoff
  const int iters = 8;
  const int workers[] = {1, 2, 4};
  Rng rng(6);
  Tensor a = random_normal({n, n}, rng);
  Tensor b = random_normal({n, n}, rng);
  const double flops = 2.0 * static_cast<double>(n) * n * n;

  std::printf("\nGEMM worker sweep (n=%lld, %d iters, host cores %u):\n",
              static_cast<long long>(n), iters,
              std::thread::hardware_concurrency());
  perf::BenchReport report("pdgemm_micro");
  std::vector<float> ref_bits;
  double w1_ms = 0.0;
  const int configured_workers = run_config().workers;
  for (const int w : workers) {
    run_config().workers = w;
    Tensor c = matmul(a, b);  // warm the pool threads and pack arenas
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) c = matmul(a, b);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      iters;
    bool identical = true;
    if (w == 1) {
      ref_bits.assign(c.data(), c.data() + c.numel());
      w1_ms = ms;
    } else {
      identical = std::memcmp(c.data(), ref_bits.data(),
                              ref_bits.size() * sizeof(float)) == 0;
    }
    const double gflops = flops / (ms * 1e6);
    const double speedup = w1_ms / ms;
    std::printf("  W=%d: %8.2f ms  %7.2f GFLOP/s  %.2fx vs W=1  %s\n", w, ms,
                gflops, speedup,
                identical ? "bit-identical" : "MISMATCH vs W=1");
    char name[24];
    std::snprintf(name, sizeof(name), "gemm_n384_w%d", w);
    obs::JsonValue& jc = report.add_case(name);
    jc["workers"] = static_cast<std::int64_t>(w);
    jc["n"] = n;
    jc["wall_ms"] = ms;
    jc["gflops"] = gflops;
    jc["speedup_vs_w1"] = speedup;
    jc["bit_identical_to_w1"] = identical;
    all_identical = all_identical && identical;
  }
  run_config().workers = configured_workers;

  const GemmScratchStats scratch = gemm_scratch_stats();
  std::printf("  pack arenas: %llu allocations, %llu reuses\n",
              static_cast<unsigned long long>(scratch.allocations),
              static_cast<unsigned long long>(scratch.reuses));
  obs::JsonValue& js = report.add_case("pack_scratch");
  js["allocations"] = static_cast<std::int64_t>(scratch.allocations);
  js["reuses"] = static_cast<std::int64_t>(scratch.reuses);

  const char* out = "BENCH_pdgemm_micro.json";
  if (report.write(out)) {
    std::printf("wrote %s\n", out);
  } else {
    std::fprintf(stderr, "failed to write %s\n", out);
  }
  return all_identical;
}

// Kernel variant sweep: every registry entry forced in turn, timed on one
// matmul size and on one GELU pass (y and dy/dx), and checked against its
// gate: each variant must match scalar bit for bit (memcmp). Rows land in
// BENCH_kernel_variants.json (bench_comm_volume appends its compression rows
// to the same file). Returns false when an available variant fails a gate.
bool run_variant_sweep() {
  bool all_pass = true;
  const std::int64_t n = 256;
  const int iters = 8;
  // Positive data in [0.5, 1.5): no cancellation, so a relative error against
  // the scalar reference measures a variant's rounding rather than the
  // conditioning of the dot products.
  Tensor a({n, n});
  Tensor b({n, n});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const std::uint32_t ha = (static_cast<std::uint32_t>(i) + 1u) * 2654435761u;
    const std::uint32_t hb = (static_cast<std::uint32_t>(i) + 7u) * 2246822519u;
    // Prime modulus: full-mantissa values, so products are inexact and a
    // variant that changed the rounding sequence would diverge from scalar.
    a.data()[i] = 0.5f + static_cast<float>(ha % 4093u) / 4093.0f;
    b.data()[i] = 0.5f + static_cast<float>(hb % 4093u) / 4093.0f;
  }
  const double flops = 2.0 * static_cast<double>(n) * n * n;

  std::printf("\nkernel variant sweep (n=%lld, %d iters):\n",
              static_cast<long long>(n), iters);
  force_kernel_variant("scalar");
  Tensor ref = matmul(a, b);

  perf::BenchReport report("kernel_variants");
  for (const KernelVariant& v : kernel_variants()) {
    char name[32];
    std::snprintf(name, sizeof(name), "gemm_n256_%s", v.name);
    obs::JsonValue& jc = report.add_case(name);
    jc["variant"] = std::string(v.name);
    jc["gate"] = "memcmp";
    jc["mr"] = kMicroMR;
    jc["nr"] = v.nr;
    if (!v.available(cpu_features())) {
      jc["available"] = false;
      std::printf("  %-8s unavailable on this host (%s)\n", v.name,
                  cpu_features_string().c_str());
      continue;
    }
    jc["available"] = true;
    force_kernel_variant(v.name);
    Tensor c = matmul(a, b);  // warm
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) c = matmul(a, b);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      iters;
    const double gflops = flops / (ms * 1e6);
    double max_rel = 0.0;
    for (std::int64_t i = 0; i < c.numel(); ++i) {
      const double r = std::fabs(static_cast<double>(ref.data()[i]));
      max_rel = std::max(
          max_rel, std::fabs(static_cast<double>(c.data()[i]) -
                             static_cast<double>(ref.data()[i])) /
                       std::max(r, 1e-6));
    }
    const bool identical =
        std::memcmp(c.data(), ref.data(),
                    static_cast<std::size_t>(c.numel()) * sizeof(float)) == 0;
    std::printf("  %-8s %8.2f ms  %7.2f GFLOP/s  %s (max rel err %.2e)\n",
                v.name, ms, gflops,
                identical ? "bit-identical" : "GATE VIOLATION", max_rel);
    jc["wall_ms"] = ms;
    jc["gflops"] = gflops;
    jc["bit_identical_to_scalar"] = identical;
    jc["max_rel_err_vs_scalar"] = max_rel;
    jc["gate_pass"] = identical;
    all_pass = all_pass && identical;
  }
  force_kernel_variant(nullptr);

  // The bare micro-kernel: one kc = 256 rank update of a kMicroMR x nr tile
  // from a packed A panel and a B panel that stay in L1 (at most 24 KiB),
  // so the figure is the kernel's arithmetic rate with no packing, blocking
  // or C traffic. Best of 7 rounds.
  const std::int64_t kc = 256;
  const int micro_calls = 4096;
  std::vector<float> ap(static_cast<std::size_t>(kc * kMicroMR));
  for (std::size_t i = 0; i < ap.size(); ++i) ap[i] = 1.0f / (1.0f + i % 7);
  std::printf("\nmicro-kernel sweep (kc=%lld, %d calls, best of 7):\n",
              static_cast<long long>(kc), micro_calls);
  for (const KernelVariant& v : kernel_variants()) {
    char name[32];
    std::snprintf(name, sizeof(name), "micro_%s", v.name);
    obs::JsonValue& jc = report.add_case(name);
    jc["variant"] = std::string(v.name);
    jc["mr"] = kMicroMR;
    jc["nr"] = v.nr;
    jc["kc"] = kc;
    if (!v.available(cpu_features())) {
      jc["available"] = false;
      continue;
    }
    jc["available"] = true;
    std::vector<float> bp(static_cast<std::size_t>(kc * v.nr));
    for (std::size_t i = 0; i < bp.size(); ++i) bp[i] = 1.0f / (1.0f + i % 5);
    std::vector<float> acc(static_cast<std::size_t>(kMicroMR * v.nr), 0.0f);
    double best_ms = 0.0;
    for (int round = 0; round < 7; ++round) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < micro_calls; ++i) {
        v.micro(kc, ap.data(), bp.data(), v.nr, acc.data());
        benchmark::DoNotOptimize(acc.data());
        benchmark::ClobberMemory();
      }
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (round == 0 || ms < best_ms) best_ms = ms;
    }
    const double gflops = 2.0 * static_cast<double>(kMicroMR * v.nr * kc) *
                          micro_calls / (best_ms * 1e6);
    std::printf("  %-8s %2lldx%-2lld %8.3f ms  %7.2f GFLOP/s\n", v.name,
                static_cast<long long>(kMicroMR),
                static_cast<long long>(v.nr), best_ms, gflops);
    jc["wall_ms"] = best_ms;
    jc["gflops"] = gflops;
  }

  // GELU over one layer's FFN activations of perfbench's train_step, summed
  // over its 8 ranks; inputs spread over [-8, 8), into both saturated tails.
  const std::int64_t gn = 262144;
  const int gelu_iters = 20;
  Tensor gx({gn});
  for (std::int64_t i = 0; i < gn; ++i) {
    const std::uint32_t h = (static_cast<std::uint32_t>(i) + 3u) * 2654435761u;
    gx.data()[i] = static_cast<float>(h % 65521u) / 4095.0625f - 8.0f;
  }
  const KernelVariant& scalar = kernel_variants()[0];
  Tensor gy_ref({gn});
  Tensor gd_ref({gn});
  scalar.gelu(gx.data(), gy_ref.data(), gd_ref.data(), gn);
  std::printf("\ngelu sweep (n=%lld, y and dy/dx, best of %d):\n",
              static_cast<long long>(gn), gelu_iters);
  for (const KernelVariant& v : kernel_variants()) {
    char name[32];
    std::snprintf(name, sizeof(name), "gelu_%s", v.name);
    obs::JsonValue& jc = report.add_case(name);
    jc["variant"] = std::string(v.name);
    jc["gate"] = "memcmp";
    if (!v.available(cpu_features())) {
      jc["available"] = false;
      continue;
    }
    jc["available"] = true;
    Tensor gy({gn});
    Tensor gd({gn});
    double best_ms = 0.0;
    for (int i = 0; i < gelu_iters; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      v.gelu(gx.data(), gy.data(), gd.data(), gn);
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      if (i == 0 || ms < best_ms) best_ms = ms;
    }
    const auto bytes = static_cast<std::size_t>(gn) * sizeof(float);
    const bool identical =
        std::memcmp(gy.data(), gy_ref.data(), bytes) == 0 &&
        std::memcmp(gd.data(), gd_ref.data(), bytes) == 0;
    const double ns_per_elem = best_ms * 1e6 / static_cast<double>(gn);
    std::printf("  %-8s %8.3f ms  %6.2f ns/element  %s\n", v.name, best_ms,
                ns_per_elem, identical ? "bit-identical" : "GATE VIOLATION");
    jc["wall_ms"] = best_ms;
    jc["ns_per_element"] = ns_per_elem;
    jc["bit_identical_to_scalar"] = identical;
    jc["gate_pass"] = identical;
    all_pass = all_pass && identical;
  }

  const char* out = "BENCH_kernel_variants.json";
  // bench_comm_volume appends its depth-compression rows to this file; when
  // it ran first, carry its rows over instead of clobbering them, so the two
  // benches can run in either order. Read through the same artifact-dir
  // redirection the writer applies.
  {
    std::ifstream in(obs::artifact_path(out));
    if (in) {
      std::stringstream ss;
      ss << in.rdbuf();
      const obs::JsonValue prior = obs::json_parse(ss.str());
      if (const obs::JsonValue* cases = prior.find("cases");
          cases != nullptr && cases->is_array()) {
        for (const obs::JsonValue& c : cases->items()) {
          const obs::JsonValue* cn = c.find("name");
          if (cn != nullptr && cn->is_string() &&
              cn->as_string().rfind("gemm_", 0) != 0 &&
              cn->as_string().rfind("gelu_", 0) != 0 &&
              cn->as_string().rfind("micro_", 0) != 0) {
            report.add_case(cn->as_string()) = c;
          }
        }
      }
    }
  }
  if (report.write(out)) {
    std::printf("wrote %s\n", out);
  } else {
    std::fprintf(stderr, "failed to write %s\n", out);
  }
  return all_pass;
}

}  // namespace

int main(int argc, char** argv) {
  tsr::config_from_env();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // A worker count that departs from W=1, or a variant that departs from
  // scalar, fails the run, so CI's sweep step can fail.
  const bool workers_ok = run_worker_sweep();
  const bool variants_ok = run_variant_sweep();
  return workers_ok && variants_ok ? 0 : 1;
}
