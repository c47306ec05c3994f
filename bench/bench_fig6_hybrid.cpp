// Reproduces the structure of Figure 6: 32 GPUs = data-parallel 2 x
// pipeline 2 x Tesseract [2,2,2], running a real (small-dimension) training
// step on the virtual cluster and reporting where the time and bytes go —
// the paper's Section 3.4 compatibility claim, executed.
#include <cstdio>

#include "comm/communicator.hpp"
#include "nn/transformer.hpp"
#include "parallel/dist.hpp"
#include "parallel/pipeline.hpp"
#include "runtime/config.hpp"
#include "tensor/init.hpp"
#include "tensor/kernels.hpp"

using namespace tsr;

int main() {
  tsr::config_from_env();
  // Fig. 6's arrangement: dp 2 x pp 2 x (q^2 d = 8) = 32 GPUs.
  par::PipelineConfig cfg;
  cfg.stages = 2;
  cfg.layers_per_stage = 2;
  cfg.q = 2;
  cfg.d = 2;
  cfg.micro_batch = 8;
  cfg.seq = 8;
  cfg.hidden = 32;
  cfg.heads = 4;
  const int dp = 2;
  const int micros = 4;
  const int group = cfg.total_ranks();
  const int total = dp * group;

  std::printf("Fig. 6 arrangement: %d GPUs = dp %d x pp %d x Tesseract [%d,%d,%d]\n",
              total, dp, cfg.stages, cfg.q, cfg.q, cfg.d);
  std::printf("model: %lld layers, h=%lld, heads=%lld; %d micro-batches of %lld\n\n",
              static_cast<long long>(cfg.stages * cfg.layers_per_stage),
              static_cast<long long>(cfg.hidden),
              static_cast<long long>(cfg.heads), micros,
              static_cast<long long>(cfg.micro_batch));

  Rng data_rng(1);
  std::vector<std::vector<Tensor>> xs(2), gs(2);
  for (int r = 0; r < dp; ++r) {
    for (int m = 0; m < micros; ++m) {
      xs[static_cast<std::size_t>(r)].push_back(
          random_normal({cfg.micro_batch, cfg.seq, cfg.hidden}, data_rng));
      gs[static_cast<std::size_t>(r)].push_back(
          random_normal({cfg.micro_batch, cfg.seq, cfg.hidden}, data_rng));
    }
  }

  // Serial reference for the replica-0 output of micro 0.
  Rng serial_rng(77);
  nn::TransformerEncoder serial(
      {cfg.hidden, cfg.heads, cfg.stages * cfg.layers_per_stage, 4}, serial_rng);
  Tensor y_ref = serial.forward(xs[0][0]);

  comm::World world(total, topo::MachineSpec::meluxina());
  float err = -1.0f;
  world.run([&](comm::Communicator& c) {
    const int replica = c.rank() / group;
    comm::Communicator pp_group = c.split(replica, c.rank());
    comm::Communicator dp_pair = c.split(c.rank() % group, replica);

    Rng wrng(77);
    par::TesseractPipeline pipe(pp_group, cfg, wrng);
    auto& x = xs[static_cast<std::size_t>(replica)];
    auto& g = gs[static_cast<std::size_t>(replica)];

    std::vector<Tensor> in_local(static_cast<std::size_t>(micros));
    std::vector<Tensor> gr_local(static_cast<std::size_t>(micros));
    for (int m = 0; m < micros; ++m) {
      in_local[static_cast<std::size_t>(m)] = par::distribute_activation(
          pipe.context().comms(), x[static_cast<std::size_t>(m)]);
      gr_local[static_cast<std::size_t>(m)] = par::distribute_activation(
          pipe.context().comms(), g[static_cast<std::size_t>(m)]);
    }
    std::vector<Tensor> outs = pipe.forward(in_local);
    (void)pipe.backward(gr_local);

    // Data-parallel all-reduce of every local gradient shard (averaging).
    for (nn::Param* p : pipe.params()) {
      dp_pair.all_reduce(p->grad);
      scale(p->grad, 1.0f / dp);
    }

    if (replica == 0 && pipe.is_last_stage()) {
      Tensor y = par::collect_activation(pipe.context().comms(), outs[0],
                                         cfg.micro_batch, cfg.seq, cfg.hidden);
      const float e = max_abs_diff(y, y_ref);
      if (pipe.context().comms().grid.rank() == 0) err = e;
    }
  });

  const comm::CommStats stats = world.total_stats();
  std::printf("micro-0 output vs serial reference: max err = %g\n",
              static_cast<double>(err));
  std::printf("simulated step time on MeluXina model: %.2f ms\n",
              world.max_sim_time() * 1e3);
  std::printf("cluster-wide wire traffic: %.2f MB in %lld messages\n",
              static_cast<double>(stats.bytes_sent) / (1 << 20),
              static_cast<long long>(stats.msgs_sent));
  std::printf("  intra-node: %.2f MB   inter-node: %.2f MB\n",
              static_cast<double>(stats.bytes_intra_node) / (1 << 20),
              static_cast<double>(stats.bytes_inter_node) / (1 << 20));
  std::printf(
      "\nAll three parallel axes compose: the Tesseract grids do the tensor\n"
      "work, micro-batches pipeline across stages (overlap visible in the\n"
      "simulated clocks), and the data-parallel pairs average gradients —\n"
      "exactly the Fig. 6 stack.\n");
  return err >= 0.0f && err < 1e-3f ? 0 : 1;
}
