// Google-benchmark micro harness for the collective implementations: host
// wall-clock of the virtual-cluster collectives across group sizes and
// payloads, plus the simulated-time readout for the MeluXina model.
#include <benchmark/benchmark.h>

#include "comm/communicator.hpp"
#include "perf/trace.hpp"
#include "runtime/config.hpp"

using namespace tsr;

namespace {

void BM_AllReduce(benchmark::State& state) {
  const int g = static_cast<int>(state.range(0));
  const std::int64_t count = state.range(1);
  for (auto _ : state) {
    comm::World world(g);
    world.run([&](comm::Communicator& c) {
      std::vector<float> data(static_cast<std::size_t>(count), 1.0f);
      c.all_reduce(data);
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetBytesProcessed(state.iterations() * g * count * 4);
}
BENCHMARK(BM_AllReduce)
    ->Args({4, 1024})
    ->Args({8, 1024})
    ->Args({16, 1024})
    ->Args({8, 65536});

void BM_Broadcast(benchmark::State& state) {
  const int g = static_cast<int>(state.range(0));
  const std::int64_t count = state.range(1);
  for (auto _ : state) {
    comm::World world(g);
    world.run([&](comm::Communicator& c) {
      std::vector<float> data(static_cast<std::size_t>(count), 1.0f);
      c.broadcast(data, 0);
      benchmark::DoNotOptimize(data.data());
    });
  }
}
BENCHMARK(BM_Broadcast)->Args({4, 1024})->Args({16, 1024})->Args({8, 65536});

void BM_ReduceScatter(benchmark::State& state) {
  const int g = static_cast<int>(state.range(0));
  const std::int64_t chunk = state.range(1);
  for (auto _ : state) {
    comm::World world(g);
    world.run([&](comm::Communicator& c) {
      std::vector<float> data(static_cast<std::size_t>(chunk * g), 1.0f);
      std::vector<float> out(static_cast<std::size_t>(chunk));
      c.reduce_scatter(data, out);
      benchmark::DoNotOptimize(out.data());
    });
  }
}
BENCHMARK(BM_ReduceScatter)->Args({4, 1024})->Args({8, 4096});

void BM_Barrier(benchmark::State& state) {
  const int g = static_cast<int>(state.range(0));
  for (auto _ : state) {
    comm::World world(g);
    world.run([&](comm::Communicator& c) { c.barrier(); });
  }
}
BENCHMARK(BM_Barrier)->Arg(4)->Arg(16)->Arg(64);

// Not a wall-clock benchmark: reports the SIMULATED MeluXina time of an
// all-reduce as a counter, for eyeballing the machine model.
void BM_SimulatedAllReduceTime(benchmark::State& state) {
  const int g = static_cast<int>(state.range(0));
  const std::int64_t count = state.range(1);
  double sim = 0.0;
  for (auto _ : state) {
    comm::World world(g, topo::MachineSpec::meluxina());
    perf::Measurement m = perf::measure(world, [&](comm::Communicator& c) {
      c.phantom_all_reduce(count * 4);
    });
    sim = m.sim_seconds;
  }
  state.counters["sim_us"] = sim * 1e6;
}
BENCHMARK(BM_SimulatedAllReduceTime)
    ->Args({4, 1 << 20})
    ->Args({16, 1 << 20})
    ->Args({64, 1 << 20});

}  // namespace

int main(int argc, char** argv) {
  tsr::config_from_env();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
