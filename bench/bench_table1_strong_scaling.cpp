// Reproduces Table 1 (strong scaling): fixed problem size (hidden 3072,
// 64 attention heads, batch 12 — 16 where d*q requires it), across the
// paper's 12 configurations of Megatron-LM, Optimus and Tesseract.
//
// Times come from the phantom replay of the real layer schedules on the
// simulated MeluXina machine (see perf/cost_model.hpp); the paper's
// absolute numbers are testbed wall-clock and are not expected to match,
// but the ordering and ratios should (and the key ones are printed).
#include <cstdio>
#include <iostream>
#include <vector>

#include "comm/communicator.hpp"
#include "obs/expect.hpp"
#include "obs/live.hpp"
#include "perf/cost_model.hpp"
#include "perf/export.hpp"
#include "perf/flame.hpp"
#include "perf/report.hpp"
#include "perf/run_report.hpp"
#include "perf/trace.hpp"
#include "runtime/config.hpp"

using namespace tsr;

namespace {

// The paper does not state the sequence length or layer count; these values
// give a model of the same character (Megatron-8B-ish layer at h = 3072).
constexpr std::int64_t kSeq = 512;
constexpr int kLayers = 24;

perf::LayerDims dims(std::int64_t batch) {
  return perf::LayerDims{batch, kSeq, 3072, 64};
}

struct PaperRow {
  double fwd, bwd, throughput, inference;
};

void run_row(std::vector<perf::TableRow>& rows, const perf::EvalConfig& cfg) {
  rows.push_back(perf::make_row(cfg, perf::evaluate(cfg)));
}

}  // namespace

int main() {
  tsr::config_from_env();
  std::vector<perf::TableRow> rows;

  run_row(rows, {.scheme = perf::Scheme::Megatron1D, .p = 4, .dims = dims(12),
                 .layers = kLayers});
  run_row(rows, {.scheme = perf::Scheme::Megatron1D, .p = 16, .dims = dims(12),
                 .layers = kLayers});
  run_row(rows, {.scheme = perf::Scheme::Megatron1D, .p = 64, .dims = dims(12),
                 .layers = kLayers});
  run_row(rows, {.scheme = perf::Scheme::Optimus2D, .q = 2, .dims = dims(12),
                 .layers = kLayers});
  run_row(rows, {.scheme = perf::Scheme::Optimus2D, .q = 4, .dims = dims(12),
                 .layers = kLayers});
  run_row(rows, {.scheme = perf::Scheme::Optimus2D, .q = 8, .dims = dims(12),
                 .layers = kLayers});
  run_row(rows, {.scheme = perf::Scheme::Tesseract, .q = 2, .d = 1,
                 .dims = dims(12), .layers = kLayers});
  run_row(rows, {.scheme = perf::Scheme::Tesseract, .q = 2, .d = 2,
                 .dims = dims(12), .layers = kLayers});
  run_row(rows, {.scheme = perf::Scheme::Tesseract, .q = 4, .d = 1,
                 .dims = dims(12), .layers = kLayers});
  run_row(rows, {.scheme = perf::Scheme::Tesseract, .q = 4, .d = 2,
                 .dims = dims(12), .layers = kLayers});
  // Paper: batch raised to 16 so it divides d*q = 16.
  run_row(rows, {.scheme = perf::Scheme::Tesseract, .q = 4, .d = 4,
                 .dims = dims(16), .layers = kLayers});
  run_row(rows, {.scheme = perf::Scheme::Tesseract, .q = 8, .d = 1,
                 .dims = dims(12), .layers = kLayers});

  perf::print_table(std::cout,
                    "Table 1 — strong scaling (simulated MeluXina, " +
                        std::to_string(kLayers) + " layers, seq " +
                        std::to_string(kSeq) + ")",
                    rows);

  // Key ratios the paper reports, measured on our rows.
  auto fwd = [&](std::size_t i) { return rows[i].fwd; };
  std::printf("\nKey ratios (paper-reported value in parentheses):\n");
  std::printf("  Tesseract[4,4,4] vs Megatron[64]   : %.4f  (paper 1.3751)\n",
              fwd(2) / fwd(10));
  std::printf("  Tesseract[4,4,4] vs Optimus[8,8]   : %.4f  (paper 1.5293)\n",
              fwd(5) / fwd(10));
  std::printf("  Tesseract[4,4,4] vs Tesseract[8,8,1]: %.4f  (paper 2.0702)\n",
              fwd(11) / fwd(10));
  std::printf("  Tesseract[2,2,2] vs Tesseract[2,2,1]: %.4f  (paper 1.6677)\n",
              fwd(6) / fwd(7));
  std::printf("  Tesseract[4,4,2] vs Tesseract[4,4,1]: %.4f  (paper 1.1608)\n",
              fwd(8) / fwd(9));

  // Machine-readable twin of the table above.
  perf::BenchReport report("table1_strong_scaling");
  for (const perf::TableRow& r : rows) {
    obs::JsonValue& c = report.add_case(r.parallelization + " " + r.shape);
    c["gpus"] = static_cast<std::int64_t>(r.gpus);
    c["batch"] = r.batch;
    c["hidden"] = r.hidden;
    c["heads"] = r.heads;
    c["fwd_ms"] = r.fwd;
    c["bwd_ms"] = r.bwd;
    c["throughput"] = r.throughput;
    c["inference_ms"] = r.inference;
  }
  const char* out = "BENCH_table1_strong_scaling.json";
  if (report.write(out)) {
    std::printf("\nwrote %s\n", out);
  } else {
    std::fprintf(stderr, "failed to write %s\n", out);
  }

  // Instrumented replay of the representative Tesseract [2,2,2] row with the
  // full observability stack on: run report, live timeline and the
  // cost-model expectation monitor. The monitor's profile comes from the
  // same cost model that produced the row, so a healthy replay must emit
  // zero drift events — CI gates on exactly that.
  {
    const perf::EvalConfig cfg{.scheme = perf::Scheme::Tesseract,
                               .q = 2,
                               .d = 2,
                               .dims = dims(12),
                               .layers = kLayers};
    const obs::ExpectationProfile profile =
        perf::expectation_from_cost_model(cfg);
    comm::World world(cfg.total_ranks(), cfg.spec);
    world.enable_tracing();
    world.enable_metrics();
    obs::LiveConfig lc;
    lc.interval = profile.makespan / 64.0;  // ~64 windows over the replay
    lc.label = "table1";
    lc.path = "TIMELINE_table1.json";
    world.enable_live(lc);
    obs::ExpectationMonitor monitor(profile, obs::DriftConfig{}, world.size());
    world.live()->set_monitor(&monitor);
    perf::EvalConfig one_layer = cfg;
    one_layer.layers = 1;
    world.run([&](comm::Communicator& c) {
      for (int l = 0; l < cfg.layers; ++l) {
        perf::replay_schedule(one_layer, c, /*backward=*/false);
        perf::replay_schedule(one_layer, c, /*backward=*/true);
      }
    });
    world.finish_live();
    if (perf::write_run_report(world, "table1")) {
      std::printf("wrote REPORT_table1.{json,html} and TIMELINE_table1.json "
                  "(windows=%lld, drift_events=%lld)\n",
                  static_cast<long long>(world.live()->windows_flushed()),
                  static_cast<long long>(world.live()->drift_events().size()));
    } else {
      std::fprintf(stderr, "failed to write REPORT_table1.{json,html}\n");
    }
    // Folded flamegraph of the same instrumented replay, so a tsr_gate
    // regression on this row can be drilled into without rerunning.
    if (perf::write_flamegraph(world, "FLAME_table1.folded")) {
      std::printf("wrote FLAME_table1.folded\n");
    } else {
      std::fprintf(stderr, "failed to write FLAME_table1.folded\n");
    }
  }
  return 0;
}
