// Reproduces Table 2 (weak scaling): the per-GPU problem size is held
// roughly constant by growing batch and hidden size with the grid, using the
// exact (batch, hidden, heads) triples of the paper's rows.
#include <cstdio>
#include <iostream>
#include <vector>

#include "perf/cost_model.hpp"
#include "perf/report.hpp"
#include "runtime/config.hpp"

using namespace tsr;

namespace {

constexpr std::int64_t kSeq = 512;
constexpr int kLayers = 24;

void run_row(std::vector<perf::TableRow>& rows, perf::EvalConfig cfg) {
  rows.push_back(perf::make_row(cfg, perf::evaluate(cfg)));
}

}  // namespace

int main() {
  tsr::config_from_env();
  std::vector<perf::TableRow> rows;
  using perf::LayerDims;
  using perf::Scheme;

  // (batch, hidden, heads) per row exactly as printed in Table 2.
  run_row(rows, {.scheme = Scheme::Megatron1D, .p = 4,
                 .dims = LayerDims{60, kSeq, 2048, 32}, .layers = kLayers});
  run_row(rows, {.scheme = Scheme::Megatron1D, .p = 16,
                 .dims = LayerDims{60, kSeq, 4096, 64}, .layers = kLayers});
  run_row(rows, {.scheme = Scheme::Megatron1D, .p = 64,
                 .dims = LayerDims{30, kSeq, 8192, 128}, .layers = kLayers});
  run_row(rows, {.scheme = Scheme::Optimus2D, .q = 2,
                 .dims = LayerDims{96, kSeq, 2048, 32}, .layers = kLayers});
  run_row(rows, {.scheme = Scheme::Optimus2D, .q = 4,
                 .dims = LayerDims{192, kSeq, 4096, 64}, .layers = kLayers});
  run_row(rows, {.scheme = Scheme::Optimus2D, .q = 8,
                 .dims = LayerDims{384, kSeq, 8192, 128}, .layers = kLayers});
  run_row(rows, {.scheme = Scheme::Tesseract, .q = 1, .d = 1,
                 .dims = LayerDims{48, kSeq, 1024, 16}, .layers = kLayers});
  run_row(rows, {.scheme = Scheme::Tesseract, .q = 2, .d = 1,
                 .dims = LayerDims{96, kSeq, 2048, 32}, .layers = kLayers});
  run_row(rows, {.scheme = Scheme::Tesseract, .q = 2, .d = 2,
                 .dims = LayerDims{192, kSeq, 2048, 32}, .layers = kLayers});
  run_row(rows, {.scheme = Scheme::Tesseract, .q = 4, .d = 1,
                 .dims = LayerDims{192, kSeq, 4096, 64}, .layers = kLayers});
  run_row(rows, {.scheme = Scheme::Tesseract, .q = 4, .d = 2,
                 .dims = LayerDims{384, kSeq, 4096, 64}, .layers = kLayers});
  run_row(rows, {.scheme = Scheme::Tesseract, .q = 4, .d = 4,
                 .dims = LayerDims{768, kSeq, 4096, 64}, .layers = kLayers});
  run_row(rows, {.scheme = Scheme::Tesseract, .q = 8, .d = 1,
                 .dims = LayerDims{384, kSeq, 8192, 128}, .layers = kLayers});

  perf::print_table(std::cout,
                    "Table 2 — weak scaling (simulated MeluXina, " +
                        std::to_string(kLayers) + " layers, seq " +
                        std::to_string(kSeq) + ")",
                    rows);

  const auto& mega64 = rows[2];
  const auto& opti64 = rows[5];
  const auto& tess444 = rows[11];
  const auto& tess881 = rows[12];
  std::printf("\nKey ratios at 64 GPUs (paper value in parentheses):\n");
  std::printf("  throughput Tesseract[4,4,4] / Megatron[64] : %.4f  (paper 3.3746)\n",
              tess444.throughput / mega64.throughput);
  std::printf("  throughput Tesseract[4,4,4] / Optimus[8,8] : %.4f  (paper 1.7144)\n",
              tess444.throughput / opti64.throughput);
  std::printf("  inference  Tesseract[4,4,4] / Megatron[64] : %.4f  (paper 4.0156)\n",
              tess444.inference / mega64.inference);
  std::printf("  inference  Tesseract[4,4,4] / Optimus[8,8] : %.4f  (paper 1.6987)\n",
              tess444.inference / opti64.inference);
  std::printf("  throughput Tesseract[4,4,4] / [8,8,1]      : %.4f  (paper 1.5092)\n",
              tess444.throughput / tess881.throughput);
  std::printf("  inference  Tesseract[4,4,4] / [8,8,1]      : %.4f  (paper 1.5576)\n",
              tess444.inference / tess881.inference);
  return 0;
}
