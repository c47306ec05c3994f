// Self-performance benchmark: REAL wall-clock of this runtime executing a
// Tesseract [2,2,2] Transformer layer step (forward + backward on 8 ranks),
// as opposed to the simulated-cluster times the table benches report.
//
// This is the harness behind docs/performance.md: it exercises the
// multi-worker fiber scheduler, the zero-copy mailbox fast path, the pooled
// message buffers and the blocked GEMM micro-kernel together, sweeping
// TESSERACT_WORKERS to measure how the step and the Table-1 phantom replay
// scale with host cores, and emits BENCH_runtime_selfperf.json so CI can
// archive the numbers per commit.
//
//   $ ./bench_runtime_selfperf
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "nn/transformer.hpp"
#include "parallel/dist.hpp"
#include "parallel/tesseract_transformer.hpp"
#include "perf/cost_model.hpp"
#include "perf/export.hpp"
#include "runtime/config.hpp"
#include "runtime/fiber.hpp"
#include "runtime/worker_pool.hpp"
#include "tensor/init.hpp"

using namespace tsr;

namespace {

// Large enough that GEMM dominates and the pool reaches steady state, small
// enough that the whole bench stays in the seconds range on one core.
constexpr std::int64_t kBatch = 8, kSeq = 32, kHidden = 256, kHeads = 8;
constexpr int kWarmup = 2;
constexpr int kIters = 10;

const int kWorkerSweep[] = {1, 2, 4};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct StepMeasurement {
  double wall_ms = 0.0;
  std::vector<float> y_bits;  // rank-0 collected output, for identity checks
  std::uint64_t resumes = 0;
  std::uint64_t cross_wakes = 0;
  std::uint64_t parks = 0;
  std::int64_t pool_allocs = 0;
  std::int64_t pool_reuses = 0;
  std::int64_t msgs_sent = 0;
  std::int64_t bytes_sent = 0;
  double sim_time_s = 0.0;
};

// One timed [2,2,2] run at the current TESSERACT_WORKERS setting.
StepMeasurement run_tesseract_step(const Tensor& x, const Tensor& dy) {
  StepMeasurement m;
  const rt::SchedulerStats before = rt::scheduler_stats();
  comm::World world(8, topo::MachineSpec::meluxina());
  world.run([&](comm::Communicator& c) {
    par::TesseractContext ctx(c, 2, 2);
    Rng wrng(99);
    par::TesseractTransformerLayer layer(ctx, kHidden, kHeads, wrng);
    Tensor xl = par::distribute_activation(ctx.comms(), x);
    Tensor dyl = par::distribute_activation(ctx.comms(), dy);
    for (int i = 0; i < kWarmup; ++i) {
      (void)layer.forward(xl);
      (void)layer.backward(dyl);
    }
    c.barrier();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      (void)layer.forward(xl);
      (void)layer.backward(dyl);
    }
    c.barrier();
    if (c.rank() == 0) m.wall_ms = ms_since(t0) / kIters;
    Tensor yl = layer.forward(xl);
    Tensor y = par::collect_activation(ctx.comms(), yl, kBatch, kSeq, kHidden);
    if (c.rank() == 0) m.y_bits.assign(y.data(), y.data() + y.numel());
  });
  const rt::SchedulerStats after = rt::scheduler_stats();
  m.resumes = after.resumes - before.resumes;
  m.cross_wakes = after.cross_wakes - before.cross_wakes;
  m.parks = after.parks - before.parks;
  for (int r = 0; r < world.size(); ++r) {
    m.pool_allocs += world.pool(r).allocations();
    m.pool_reuses += world.pool(r).reuses();
  }
  const comm::CommStats stats = world.total_stats();
  m.msgs_sent = stats.msgs_sent;
  m.bytes_sent = stats.bytes_sent;
  m.sim_time_s = world.max_sim_time();
  return m;
}

// Phantom replay of representative Table-1 configurations: the same
// scheduler/mailbox-bound workload bench_table1_strong_scaling times, one
// evaluation per listed config, at `layers` layers. Besides the wall time it
// sums the deterministic phantom counts, which show how many collectives
// were simulated, how many of them ran a compiled program and how many
// layers ran as a segment program (all but two per replay): with one layer
// most keys are called once or twice, so compiling barely starts. Single
// passes of one binary spread 3-4x on a shared host, so the wall time is the
// median of kReplayPasses passes; the counts, the same in every pass, come
// from the first.
constexpr int kReplayPasses = 5;

struct ReplayMeasurement {
  double wall_ms = 0.0;
  comm::PhantomCounts counts;
};

ReplayMeasurement run_table1_replay(int layers) {
  const perf::LayerDims dims{12, 512, 3072, 64};
  const std::vector<perf::EvalConfig> configs = {
      {.scheme = perf::Scheme::Megatron1D, .p = 16, .dims = dims},
      {.scheme = perf::Scheme::Optimus2D, .q = 4, .dims = dims},
      {.scheme = perf::Scheme::Tesseract, .q = 2, .d = 2, .dims = dims},
      {.scheme = perf::Scheme::Tesseract, .q = 4, .d = 2, .dims = dims},
  };
  ReplayMeasurement m;
  std::vector<double> walls;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    for (perf::EvalConfig cfg : configs) {
      cfg.layers = layers;
      const comm::PhantomCounts c = perf::evaluate(cfg).phantom;
      if (pass > 0) continue;
      m.counts.replays += c.replays;
      m.counts.compiles += c.compiles;
      m.counts.compiled_runs += c.compiled_runs;
      m.counts.segment_runs += c.segment_runs;
    }
    walls.push_back(ms_since(t0));
  }
  std::nth_element(walls.begin(), walls.begin() + kReplayPasses / 2,
                   walls.end());
  m.wall_ms = walls[kReplayPasses / 2];
  return m;
}

}  // namespace

int main() {
  tsr::config_from_env();
  const unsigned host_cores = std::thread::hardware_concurrency();
  Rng data_rng(1);
  Tensor x = random_normal({kBatch, kSeq, kHidden}, data_rng);
  Tensor dy = random_normal({kBatch, kSeq, kHidden}, data_rng);

  // Serial single-rank reference: same layer, no communication.
  double serial_ms = 0.0;
  {
    Rng wrng(99);
    nn::TransformerLayer layer(kHidden, kHeads, wrng);
    for (int i = 0; i < kWarmup; ++i) {
      (void)layer.forward(x);
      (void)layer.backward(dy);
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      (void)layer.forward(x);
      (void)layer.backward(dy);
    }
    serial_ms = ms_since(t0) / kIters;
  }

  std::printf("Runtime self-performance (REAL wall-clock, not simulated)\n");
  std::printf("host cores: %u, backend: %s\n", host_cores,
              rt::fibers_enabled() ? "fibers" : "threads");
  std::printf("layer: b=%lld s=%lld h=%lld heads=%lld, %d timed iters\n\n",
              static_cast<long long>(kBatch), static_cast<long long>(kSeq),
              static_cast<long long>(kHidden), static_cast<long long>(kHeads),
              kIters);
  std::printf("%-34s %12.3f ms/step\n", "serial layer (1 rank)", serial_ms);

  perf::BenchReport report("runtime_selfperf");
  obs::JsonValue& serial = report.add_case("serial_layer");
  serial["wall_ms_per_step"] = serial_ms;
  serial["iters"] = static_cast<std::int64_t>(kIters);

  // Worker sweep: the same 8-rank step under 1, 2 and 4 scheduler workers.
  // Outputs must be byte-identical at every W (the SPMD determinism
  // contract); only the wall clock may move.
  const int configured_workers = run_config().workers;
  std::vector<StepMeasurement> sweep;
  for (const int w : kWorkerSweep) {
    run_config().workers = w;
    sweep.push_back(run_tesseract_step(x, dy));
  }
  bool bit_identical = true;
  for (const StepMeasurement& m : sweep) {
    bit_identical =
        bit_identical && m.y_bits.size() == sweep[0].y_bits.size() &&
        std::memcmp(m.y_bits.data(), sweep[0].y_bits.data(),
                    m.y_bits.size() * sizeof(float)) == 0;
  }
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const StepMeasurement& m = sweep[i];
    const int w = kWorkerSweep[i];
    const double speedup = sweep[0].wall_ms / m.wall_ms;
    char label[64];
    std::snprintf(label, sizeof(label), "Tesseract [2,2,2], W=%d", w);
    std::printf("%-34s %12.3f ms/step  (%.2fx vs W=1)\n", label, m.wall_ms,
                speedup);
    char name[48];
    std::snprintf(name, sizeof(name), "tesseract_2x2x2_w%d", w);
    obs::JsonValue& c = report.add_case(name);
    c["workers"] = static_cast<std::int64_t>(w);
    c["wall_ms_per_step"] = m.wall_ms;
    c["speedup_vs_w1"] = speedup;
    c["iters"] = static_cast<std::int64_t>(kIters);
    c["ranks"] = static_cast<std::int64_t>(8);
    c["scheduler_resumes"] = static_cast<std::int64_t>(m.resumes);
    c["scheduler_cross_wakes"] = static_cast<std::int64_t>(m.cross_wakes);
    c["scheduler_parks"] = static_cast<std::int64_t>(m.parks);
    c["pool_allocations"] = m.pool_allocs;
    c["pool_reuses"] = m.pool_reuses;
    c["msgs_sent"] = m.msgs_sent;
    c["bytes_sent"] = m.bytes_sent;
    c["sim_time_s"] = m.sim_time_s;
    c["output_bit_identical_to_w1"] = bit_identical;
  }
  std::printf("outputs byte-identical across the sweep: %s\n",
              bit_identical ? "yes" : "NO — determinism violation");

  // Table-1 phantom replay per worker count: scheduler + mailbox throughput
  // with analytic GEMM charging, i.e. pure runtime overhead scaling. The
  // 24-layer replay is the paper's; the one-layer replay is what a planner
  // stage pays, where compiling has little to amortize.
  std::printf("\nTable-1 replay (4 configs, phantom payloads):\n");
  for (const int layers : {24, 1}) {
    std::vector<ReplayMeasurement> replays;
    for (const int w : kWorkerSweep) {
      run_config().workers = w;
      replays.push_back(run_table1_replay(layers));
    }
    for (std::size_t i = 0; i < replays.size(); ++i) {
      const int w = kWorkerSweep[i];
      const ReplayMeasurement& m = replays[i];
      const double speedup = replays[0].wall_ms / m.wall_ms;
      char label[48];
      std::snprintf(label, sizeof(label), "table1 replay, %d layer%s, W=%d",
                    layers, layers == 1 ? "" : "s", w);
      std::printf("%-34s %12.1f ms      (%.2fx vs W=1)\n", label, m.wall_ms,
                  speedup);
      char name[40];
      if (layers == 1) {
        std::snprintf(name, sizeof(name), "table1_replay_1layer_w%d", w);
      } else {
        std::snprintf(name, sizeof(name), "table1_replay_w%d", w);
      }
      obs::JsonValue& c = report.add_case(name);
      c["workers"] = static_cast<std::int64_t>(w);
      c["wall_ms"] = m.wall_ms;
      c["speedup_vs_w1"] = speedup;
      c["collectives_simulated"] =
          static_cast<std::int64_t>(m.counts.replays + m.counts.compiled_runs);
      c["plans_compiled"] = static_cast<std::int64_t>(m.counts.compiles);
      c["compiled_runs"] = static_cast<std::int64_t>(m.counts.compiled_runs);
      c["segment_runs"] = static_cast<std::int64_t>(m.counts.segment_runs);
      c["collectives_per_host_s"] =
          static_cast<double>(m.counts.replays + m.counts.compiled_runs) /
          (m.wall_ms * 1e-3);
    }
    const comm::PhantomCounts& c = replays[0].counts;
    std::printf("  %d layer%s: %llu collectives simulated, %llu plans "
                "compiled, %llu compiled runs, %llu segment runs\n",
                layers, layers == 1 ? "" : "s",
                static_cast<unsigned long long>(c.replays + c.compiled_runs),
                static_cast<unsigned long long>(c.compiles),
                static_cast<unsigned long long>(c.compiled_runs),
                static_cast<unsigned long long>(c.segment_runs));
  }
  run_config().workers = configured_workers;

  const StepMeasurement& last = sweep.back();
  std::printf("\nmailbox buffer pool (W=%d run): %lld allocations, %lld "
              "reuses (%.1f%% of buffer acquisitions recycled)\n",
              kWorkerSweep[sizeof(kWorkerSweep) / sizeof(int) - 1],
              static_cast<long long>(last.pool_allocs),
              static_cast<long long>(last.pool_reuses),
              100.0 * static_cast<double>(last.pool_reuses) /
                  static_cast<double>(last.pool_allocs + last.pool_reuses));
  std::printf("wire traffic: %lld msgs, %lld bytes (simulated accounting "
              "unchanged by scheduling)\n",
              static_cast<long long>(last.msgs_sent),
              static_cast<long long>(last.bytes_sent));

  const char* out = "BENCH_runtime_selfperf.json";
  if (report.write(out)) {
    std::printf("\nwrote %s\n", out);
  } else {
    std::fprintf(stderr, "failed to write %s\n", out);
    return 1;
  }
  return bit_identical ? 0 : 1;
}
