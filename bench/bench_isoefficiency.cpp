// Reproduces the isoefficiency analysis of Section 3.1: efficiency (eq. 12)
// of the three schemes as the processor count grows at fixed problem size,
// and the isoefficiency growth functions (Megatron W ~ p^3, Optimus
// W ~ (sqrt(p) log p)^3).
#include <cstdio>

#include "perf/cost_model.hpp"
#include "perf/formulas.hpp"
#include "runtime/config.hpp"

using namespace tsr;

int main() {
  tsr::config_from_env();
  std::printf("=== Isoefficiency growth functions (Section 3.1) ===\n");
  std::printf("%8s %16s %22s %22s\n", "p", "Megatron p^3",
              "Optimus (sqrt(p)logp)^3", "Tesseract d=4");
  for (double p : {4.0, 16.0, 64.0, 256.0, 1024.0}) {
    std::printf("%8.0f %16.3g %22.3g %22.3g\n", p,
                perf::megatron_isoefficiency(p), perf::optimus_isoefficiency(p),
                perf::tesseract_isoefficiency(p, 4));
  }

  std::printf("\n=== Efficiency vs processors (eq. 12), fixed problem ===\n");
  std::printf("W/p + T_comm model with beta = time per scalar over IB\n\n");
  const double beta = 4.0 / 25e9;  // 4-byte scalar over 25 GB/s
  const double b = 12, s = 512, h = 3072;
  // Serial work: one layer's FLOPs at A100 sustained speed.
  const double serial_work = (24.0 * b * s * h * h + 4.0 * b * s * s * h) / 170e12;
  std::printf("%8s %14s %16s %16s %14s\n", "p", "Megatron",
              "Optimus(paper)", "Optimus(corr.)", "Tesseract d=4");
  for (double p : {4.0, 16.0, 64.0, 256.0}) {
    const double e_mega = perf::efficiency(
        serial_work, p, perf::megatron_comm_time(beta, p, b, s, h));
    const double e_opti = perf::efficiency(
        serial_work, p, perf::optimus_comm_time(beta, p, b, s, h));
    const double e_optc = perf::efficiency(
        serial_work, p, perf::optimus_comm_time_corrected(beta, p, b, s, h));
    const double e_tess = perf::efficiency(
        serial_work, p, perf::tesseract_comm_time(beta, p, 4.0, b, s, h));
    std::printf("%8.0f %14.4f %16.4f %16.4f %14.4f\n", p, e_mega, e_opti,
                e_optc, e_tess);
  }
  std::printf(
      "\n(The paper's Optimus T_comm carries an h^2 term that drives its\n"
      " efficiency to ~0 at any scale — almost certainly a typo; the\n"
      " corrected column drops the spurious h factor. See EXPERIMENTS.md.)\n");

  std::printf("\n=== Simulated end-to-end efficiency (phantom replay) ===\n");
  std::printf("strong scaling, h = 3072, batch 16, relative to 4 ranks\n\n");
  auto time_of = [](perf::Scheme scheme, int p, int q, int d) {
    perf::EvalConfig cfg{.scheme = scheme, .p = p, .q = q, .d = d,
                         .dims = perf::LayerDims{16, 512, 3072, 64},
                         .layers = 4};
    return perf::evaluate(cfg).fwd_seconds;
  };
  const double mega4 = time_of(perf::Scheme::Megatron1D, 4, 0, 1);
  const double tess4 = time_of(perf::Scheme::Tesseract, 0, 2, 1);
  std::printf("%24s %12s %12s\n", "config", "fwd (s)", "speedup vs p=4");
  std::printf("%24s %12.4f %12.2f\n", "Megatron [4]", mega4, 1.0);
  std::printf("%24s %12.4f %12.2f\n", "Megatron [64]",
              time_of(perf::Scheme::Megatron1D, 64, 0, 1),
              mega4 / time_of(perf::Scheme::Megatron1D, 64, 0, 1));
  std::printf("%24s %12.4f %12.2f\n", "Tesseract [2,2,1]", tess4, 1.0);
  std::printf("%24s %12.4f %12.2f\n", "Tesseract [4,4,4]",
              time_of(perf::Scheme::Tesseract, 0, 4, 4),
              tess4 / time_of(perf::Scheme::Tesseract, 0, 4, 4));
  return 0;
}
