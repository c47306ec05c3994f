// Scaling projection beyond the paper's 64 GPUs: the paper's conclusion
// claims Tesseract is "highly scalable"; here the validated cost model
// extrapolates the strong-scaling comparison to 256 and 1024 GPUs, where
// the isoefficiency gap (Megatron W ~ p^3 vs Tesseract's weaker growth)
// should widen. Replay (exact) up to 256 ranks; analytic (closed-form)
// alongside for the 1024-rank points where spawning threads gets silly.
#include <cstdio>

#include "perf/analytic.hpp"
#include "perf/cost_model.hpp"
#include "runtime/config.hpp"

using namespace tsr;

namespace {

perf::LayerDims big_dims() {
  // A model large enough that 1024-way parallelism is meaningful.
  return perf::LayerDims{64, 512, 8192, 128};
}

}  // namespace

int main() {
  tsr::config_from_env();
  std::printf("=== Strong-scaling projection, h = 8192, batch 64, 8 layers ===\n");
  std::printf("(replay = exact simulated schedule; analytic = closed form)\n\n");
  std::printf("%-22s %7s %14s %14s\n", "config", "GPUs", "replay fwd(s)",
              "analytic fwd(s)");

  struct Row {
    const char* name;
    perf::EvalConfig cfg;
    bool replay;  // run the exact replay (thread count permitting)
  };
  const Row rows[] = {
      {"Megatron [64]",
       {.scheme = perf::Scheme::Megatron1D, .p = 64, .dims = big_dims(), .layers = 8},
       true},
      {"Tesseract [4,4,4]",
       {.scheme = perf::Scheme::Tesseract, .q = 4, .d = 4, .dims = big_dims(), .layers = 8},
       true},
      {"Megatron [256]",
       {.scheme = perf::Scheme::Megatron1D, .p = 256, .dims = big_dims(), .layers = 8},
       true},
      {"Tesseract [8,8,4]",
       {.scheme = perf::Scheme::Tesseract, .q = 8, .d = 4, .dims = big_dims(), .layers = 8},
       true},
      {"Tesseract [16,16,1]",
       {.scheme = perf::Scheme::Tesseract, .q = 16, .d = 1, .dims = big_dims(), .layers = 8},
       true},
      {"Megatron [1024]",
       {.scheme = perf::Scheme::Megatron1D, .p = 1024, .dims = big_dims(), .layers = 8},
       false},
      {"Tesseract [16,16,4]",
       {.scheme = perf::Scheme::Tesseract, .q = 16, .d = 4, .dims = big_dims(), .layers = 8},
       false},
      {"Tesseract [8,8,16]",
       {.scheme = perf::Scheme::Tesseract, .q = 8, .d = 16, .dims = big_dims(), .layers = 8},
       false},
  };

  double mega64 = 0.0, tess256 = 0.0;
  for (const Row& r : rows) {
    // 1-D parallelism is capped by the head count: Megatron cannot shard
    // h = 8192 / 128 heads over more than 128 ranks at all — the structural
    // scalability wall the 2.5-D scheme does not have.
    if (r.cfg.scheme == perf::Scheme::Megatron1D &&
        (r.cfg.dims.heads % r.cfg.p != 0 || r.cfg.dims.hidden % r.cfg.p != 0)) {
      std::printf("%-22s %7d %14s %14s  (infeasible: only %lld heads)\n",
                  r.name, r.cfg.total_ranks(), "-", "-",
                  static_cast<long long>(r.cfg.dims.heads));
      continue;
    }
    const double analytic = perf::analytic_forward_seconds(r.cfg);
    if (r.replay) {
      const double replay = perf::evaluate(r.cfg).fwd_seconds;
      if (r.cfg.scheme == perf::Scheme::Megatron1D && r.cfg.p == 64) {
        mega64 = replay;
      }
      if (r.cfg.scheme == perf::Scheme::Tesseract &&
          r.cfg.total_ranks() == 256 && r.cfg.d == 4) {
        tess256 = replay;
      }
      std::printf("%-22s %7d %14.4f %14.4f\n", r.name, r.cfg.total_ranks(),
                  replay, analytic);
    } else {
      std::printf("%-22s %7d %14s %14.4f\n", r.name, r.cfg.total_ranks(), "-",
                  analytic);
    }
  }
  if (mega64 > 0.0 && tess256 > 0.0) {
    std::printf(
        "\nTwo scalability walls appear past the paper's 64 GPUs:\n"
        "  1. Megatron-LM cannot use more ranks than attention heads at all\n"
        "     (128 here) — 1-D sharding is structurally capped; Tesseract\n"
        "     keeps scaling (q need only divide h and n).\n"
        "  2. Tesseract [8,8,4] at 256 GPUs runs %.2fx faster than the best\n"
        "     feasible Megatron configuration (64 GPUs), and depth keeps\n"
        "     beating width ([8,8,4] vs [16,16,1]) — the isoefficiency\n"
        "     argument of Section 3.1, extrapolated.\n",
        mega64 / tess256);
  }
  return 0;
}
