// Ablations over the design choices DESIGN.md calls out:
//   A. Wire precision — fp32 vs fp16 element size (the paper's testbed
//      trains in mixed precision; does the Tesseract advantage survive?).
//   B. Machine topology — the [q,q,d] advantage under different networks
//      (MeluXina hierarchy vs flat-NVLink vs flat-InfiniBand), probing the
//      paper's claim that the arrangement exploits "less communication
//      between its d layers".
//   C. Depth sweep at fixed p = 64 — the paper's central design parameter.
// Every simulated number printed is also written to BENCH_ablations.json,
// which CI gates against the committed ledger baseline (the fp16 rows are
// the only gated elem_bytes = 2 replay).
#include <cstdio>
#include <string>

#include "perf/cost_model.hpp"
#include "perf/export.hpp"
#include "runtime/config.hpp"

using namespace tsr;

namespace {

perf::LayerDims dims64(std::int64_t elem_bytes) {
  perf::LayerDims d{16, 512, 3072, 64};
  d.elem_bytes = elem_bytes;
  return d;
}

double fwd(perf::Scheme scheme, int p_or_q, int d, const perf::LayerDims& dims,
           const topo::MachineSpec& spec) {
  perf::EvalConfig cfg;
  cfg.scheme = scheme;
  cfg.p = p_or_q;
  cfg.q = p_or_q;
  cfg.d = d;
  cfg.dims = dims;
  cfg.layers = 8;
  cfg.spec = spec;
  return perf::evaluate(cfg).fwd_seconds;
}

topo::MachineSpec flat(topo::LinkParams link) {
  topo::MachineSpec spec = topo::MachineSpec::meluxina();
  spec.intra_node = link;
  spec.inter_node = link;
  return spec;
}

}  // namespace

int main() {
  tsr::config_from_env();
  const topo::MachineSpec melu = topo::MachineSpec::meluxina();
  perf::BenchReport report("ablations");

  std::printf("=== A. Wire precision (64 GPUs, h = 3072, 8 layers) ===\n");
  std::printf("%-22s %12s %12s %10s\n", "config", "fp32 fwd(s)", "fp16 fwd(s)",
              "fp16 gain");
  struct Cfg {
    const char* name;
    perf::Scheme scheme;
    int pq;
    int d;
  };
  const Cfg cfgs[] = {
      {"Megatron [64]", perf::Scheme::Megatron1D, 64, 1},
      {"Optimus [8,8]", perf::Scheme::Optimus2D, 8, 1},
      {"Tesseract [4,4,4]", perf::Scheme::Tesseract, 4, 4},
  };
  double fp16_tess = 0, fp16_mega = 0;
  for (const Cfg& c : cfgs) {
    const double t32 = fwd(c.scheme, c.pq, c.d, dims64(4), melu);
    const double t16 = fwd(c.scheme, c.pq, c.d, dims64(2), melu);
    if (c.scheme == perf::Scheme::Tesseract) fp16_tess = t16;
    if (c.scheme == perf::Scheme::Megatron1D) fp16_mega = t16;
    std::printf("%-22s %12.4f %12.4f %9.2fx\n", c.name, t32, t16, t32 / t16);
    obs::JsonValue& row = report.add_case(std::string("precision ") + c.name);
    row["fp32_fwd_s"] = t32;
    row["fp16_fwd_s"] = t16;
  }
  std::printf("Tesseract advantage over Megatron at fp16: %.2fx\n\n",
              fp16_mega / fp16_tess);

  std::printf("=== B. Network topology (Tesseract [4,4,4] vs [8,8,1]) ===\n");
  struct Net {
    const char* name;
    topo::MachineSpec spec;
  };
  const Net nets[] = {
      {"MeluXina (NVLink+IB)", melu},
      {"flat NVLink 200 GB/s", flat(topo::LinkParams{4e-6, 1.0 / 200e9})},
      {"flat IB 25 GB/s", flat(topo::LinkParams{12e-6, 1.0 / 25e9})},
  };
  std::printf("%-22s %14s %14s %12s\n", "network", "[4,4,4] fwd", "[8,8,1] fwd",
              "deep gain");
  for (const Net& n : nets) {
    const double deep = fwd(perf::Scheme::Tesseract, 4, 4, dims64(4), n.spec);
    const double wide = fwd(perf::Scheme::Tesseract, 8, 1, dims64(4), n.spec);
    std::printf("%-22s %14.4f %14.4f %11.2fx\n", n.name, deep, wide,
                wide / deep);
    obs::JsonValue& row = report.add_case(std::string("network ") + n.name);
    row["deep_fwd_s"] = deep;
    row["wide_fwd_s"] = wide;
  }
  std::printf(
      "(depth keeps winning even on a flat network — the mechanism is the\n"
      " smaller per-rank activation slice, not just NVLink locality)\n\n");

  std::printf("=== C. Depth sweep at p = 64 (q derived, 8 layers) ===\n");
  std::printf("%-12s %14s %14s %18s\n", "shape", "fwd (s)", "throughput",
              "weight mem/rank");
  struct Shape {
    int q;
    int d;
  };
  for (const Shape sh : {Shape{8, 1}, Shape{4, 4}, Shape{2, 16}}) {
    perf::EvalConfig cfg{.scheme = perf::Scheme::Tesseract, .q = sh.q,
                         .d = sh.d, .dims = dims64(4), .layers = 8,
                         .spec = melu};
    const perf::EvalResult r = perf::evaluate(cfg);
    // Per-rank weight bytes for the layer's 12 h^2 parameters: the d-fold
    // replication term of eq. (8), b*c*d/p.
    const double h = 3072;
    const double weight_mb =
        12.0 * h * h * sh.d / (64.0) * 4.0 / (1 << 20);
    std::printf("[%d,%d,%d]%*s %14.4f %14.3f %15.1f MB\n", sh.q, sh.q, sh.d,
                sh.d >= 10 ? 3 : 4, "", r.fwd_seconds, r.throughput, weight_mb);
    obs::JsonValue& row = report.add_case("depth " + cfg.shape_string());
    row["fwd_s"] = r.fwd_seconds;
    row["throughput"] = r.throughput;
  }
  std::printf(
      "(deeper-than-q grids keep getting faster per iteration but the\n"
      " replicated-weight term b*c*d/p of eq. (8) grows linearly in d —\n"
      " [2,2,16] stores 16x the weights of [8,8,1]. The paper's d <= q\n"
      " constraint is a memory constraint, not a speed one.)\n");

  const char* out = "BENCH_ablations.json";
  if (report.write(out)) {
    std::printf("\nwrote %s\n", out);
  } else {
    std::fprintf(stderr, "failed to write %s\n", out);
  }
  return 0;
}
