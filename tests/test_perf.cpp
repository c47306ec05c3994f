// Performance model: the real layers on phantom tensors (the replay behind
// the table benchmarks) must give the clocks and CommStats of the same
// layers on real tensors, rank for rank, under every flag; plus the paper's
// closed-form claims and the qualitative table shapes.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <tuple>
#include <vector>

#include "comm/communicator.hpp"
#include "parallel/dist.hpp"
#include "perf/analytic.hpp"
#include "parallel/megatron.hpp"
#include "parallel/tesseract_transformer.hpp"
#include "perf/cost_model.hpp"
#include "perf/formulas.hpp"
#include "perf/report.hpp"
#include "perf/trace.hpp"
#include "scoped_config.hpp"
#include "tensor/init.hpp"

namespace tsr::perf {
namespace {

// Per-rank simulated clocks and CommStats at the end of a run.
struct RankRecord {
  std::vector<double> clocks;
  std::vector<comm::CommStats> stats;

  std::int64_t bytes_sent() const {
    std::int64_t n = 0;
    for (const comm::CommStats& s : stats) n += s.bytes_sent;
    return n;
  }
  std::int64_t bytes_inter_node() const {
    std::int64_t n = 0;
    for (const comm::CommStats& s : stats) n += s.bytes_inter_node;
    return n;
  }
};

RankRecord run_ranks(int ranks,
                     const std::function<void(comm::Communicator&)>& fn) {
  comm::World world(ranks, topo::MachineSpec::meluxina());
  world.run(fn);
  RankRecord rec;
  for (int r = 0; r < ranks; ++r) {
    rec.clocks.push_back(world.clock(r).now());
    rec.stats.push_back(world.stats(r));
  }
  return rec;
}

// Every rank's clock bit for bit and its full CommStats.
void expect_same_ranks(const RankRecord& real, const RankRecord& phantom) {
  ASSERT_EQ(real.clocks.size(), phantom.clocks.size());
  for (std::size_t r = 0; r < real.clocks.size(); ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(real.clocks[r]),
              std::bit_cast<std::uint64_t>(phantom.clocks[r]))
        << "rank " << r << ": real " << real.clocks[r] << " vs phantom "
        << phantom.clocks[r];
    const comm::CommStats& a = real.stats[r];
    const comm::CommStats& b = phantom.stats[r];
    EXPECT_EQ(a.msgs_sent, b.msgs_sent) << "rank " << r;
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << "rank " << r;
    EXPECT_EQ(a.bytes_intra_node, b.bytes_intra_node) << "rank " << r;
    EXPECT_EQ(a.bytes_inter_node, b.bytes_inter_node) << "rank " << r;
    ASSERT_EQ(a.collectives.size(), b.collectives.size()) << "rank " << r;
    for (const auto& [name, op] : a.collectives) {
      const auto it = b.collectives.find(name);
      ASSERT_NE(it, b.collectives.end()) << "rank " << r << " " << name;
      EXPECT_EQ(op.calls, it->second.calls) << "rank " << r << " " << name;
      EXPECT_EQ(op.bytes, it->second.bytes) << "rank " << r << " " << name;
    }
  }
}

// One forward and one backward of the replay's phantom layer.
RankRecord phantom_layer(const EvalConfig& cfg) {
  return run_ranks(cfg.total_ranks(), [&](comm::Communicator& c) {
    replay_schedule(cfg, c, /*backward=*/false);
    replay_schedule(cfg, c, /*backward=*/true);
  });
}

// One forward and one backward of the real TesseractTransformerLayer on
// real tensors.
RankRecord real_tesseract_layer(int q, int d, const LayerDims& dims) {
  Rng data_rng(1);
  const Tensor x = random_normal({dims.batch, dims.seq, dims.hidden}, data_rng);
  const Tensor dy =
      random_normal({dims.batch, dims.seq, dims.hidden}, data_rng);
  return run_ranks(q * q * d, [&](comm::Communicator& c) {
    par::TesseractContext ctx(c, q, d);
    Rng wrng(11);
    par::TesseractTransformerLayer layer(ctx, dims.hidden, dims.heads, wrng);
    // Construction and distribution are communication- and charge-free.
    (void)layer.forward(par::distribute_activation(ctx.comms(), x));
    (void)layer.backward(par::distribute_activation(ctx.comms(), dy));
  });
}

LayerDims tesseract_dims(int q, int d) {
  return LayerDims{/*batch=*/2 * q * d, /*seq=*/3, /*hidden=*/8 * q,
                   /*heads=*/2 * q};
}

struct GridCase {
  int q;
  int d;
};

class PhantomLayerEquivalence
    : public ::testing::TestWithParam<std::tuple<GridCase, bool>> {};

TEST_P(PhantomLayerEquivalence, TesseractForwardAndBackward) {
  const auto [grid, compress] = GetParam();
  const auto [q, d] = grid;
  ScopedRunConfig run_cfg;
  run_cfg->compress_depth = compress;
  const LayerDims dims = tesseract_dims(q, d);
  const EvalConfig cfg{.scheme = Scheme::Tesseract, .q = q, .d = d,
                       .dims = dims, .layers = 1};
  expect_same_ranks(real_tesseract_layer(q, d, dims), phantom_layer(cfg));
}

INSTANTIATE_TEST_SUITE_P(
    Grids, PhantomLayerEquivalence,
    ::testing::Combine(::testing::Values(GridCase{1, 1}, GridCase{2, 1},
                                         GridCase{2, 2}, GridCase{3, 2},
                                         GridCase{4, 2}, GridCase{2, 4}),
                       ::testing::Bool()));

TEST(PhantomLayerEquivalence, CompressedDepthWireBytes) {
  // The bf16 depth all-reduce halves the B' gradient traffic: the replay
  // charges what the real layers send (fwd + bwd, all ranks).
  struct Expected {
    int q, d;
    std::int64_t bytes, inter_node;
  };
  ScopedRunConfig run_cfg;
  run_cfg->compress_depth = true;
  for (const Expected& e : {Expected{2, 2, 124224, 13376},
                            Expected{4, 2, 1353344, 957056},
                            Expected{2, 4, 261824, 40128}}) {
    const EvalConfig cfg{.scheme = Scheme::Tesseract, .q = e.q, .d = e.d,
                         .dims = tesseract_dims(e.q, e.d), .layers = 1};
    const RankRecord rec = phantom_layer(cfg);
    EXPECT_EQ(rec.bytes_sent(), e.bytes) << cfg.shape_string();
    EXPECT_EQ(rec.bytes_inter_node(), e.inter_node) << cfg.shape_string();
  }
}

TEST(PhantomLayerEquivalence, CachedBytesMatchTheRealLayer) {
  // Forward caches of one layer per rank, [2,2,2] at b=8 s=4 h=16 n=4: a
  // phantom layer reports what the real one holds, so the planner can read
  // activation memory off the replay at paper scale.
  const int q = 2, d = 2;
  const LayerDims dims{8, 4, 16, 4};
  Rng data_rng(3);
  const Tensor x = random_normal({dims.batch, dims.seq, dims.hidden}, data_rng);
  std::vector<std::int64_t> real(q * q * d), phantom(q * q * d);
  comm::World world(q * q * d);
  world.run([&](comm::Communicator& c) {
    par::TesseractContext ctx(c, q, d);
    Rng wrng(5);
    par::TesseractTransformerLayer layer(ctx, dims.hidden, dims.heads, wrng);
    (void)layer.forward(par::distribute_activation(ctx.comms(), x));
    real[static_cast<std::size_t>(c.rank())] = layer.cached_bytes();
    par::TesseractTransformerLayer shapes(ctx, dims.hidden, dims.heads,
                                          nn::Init::phantom(4));
    (void)shapes.forward(Tensor::phantom({dims.batch / (q * d), dims.seq,
                                          dims.hidden / q}));
    phantom[static_cast<std::size_t>(c.rank())] = shapes.cached_bytes();
  });
  EXPECT_EQ(real, phantom);
  EXPECT_EQ(real[0], 4416);
}

class PhantomMegatronEquivalence
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(PhantomMegatronEquivalence, ForwardAndBackward) {
  const auto [p, compress] = GetParam();
  ScopedRunConfig run_cfg;
  run_cfg->compress_depth = compress;  // no depth: must change nothing
  const LayerDims dims{/*batch=*/2, /*seq=*/3, /*hidden=*/8 * p,
                       /*heads=*/2 * p};
  Rng data_rng(2);
  const Tensor x = random_normal({dims.batch, dims.seq, dims.hidden}, data_rng);
  const Tensor dy =
      random_normal({dims.batch, dims.seq, dims.hidden}, data_rng);
  const RankRecord real = run_ranks(p, [&](comm::Communicator& c) {
    par::MegatronContext ctx(c);
    Rng wrng(12);
    par::MegatronTransformerLayer layer(ctx, dims.hidden, dims.heads, wrng);
    (void)layer.forward(x);
    (void)layer.backward(dy);
  });
  const EvalConfig cfg{.scheme = Scheme::Megatron1D, .p = p, .dims = dims,
                       .layers = 1};
  expect_same_ranks(real, phantom_layer(cfg));
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, PhantomMegatronEquivalence,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Bool()));

// ---- closed-form claims (Sections 1 and 3.1) --------------------------------

TEST(Formulas, IntroductionRatiosAt64Processors) {
  // "the communication needed for Cannon's Algorithm is 31.5 times the
  //  communication needed for Tesseract, and the communication needed for
  //  the 2.5D algorithm is 3.75 times" (p = 64).
  const double tess = tesseract_transmissions(64);
  EXPECT_NEAR(cannon_transmissions(64) / tess, 31.5, 1e-9);
  EXPECT_NEAR(d25_transmissions(64) / tess, 3.75, 1e-9);
}

TEST(Formulas, TransmissionCrossovers) {
  // Tesseract beats Cannon for q > 2 and 2.5-D for q > 4 (p = q^3), and the
  // advantage widens with q.
  auto p_of_q = [](int q) { return static_cast<double>(q) * q * q; };
  EXPECT_GT(cannon_transmissions(p_of_q(3)), tesseract_transmissions(p_of_q(3)));
  EXPECT_GT(d25_transmissions(p_of_q(5)), tesseract_transmissions(p_of_q(5)));
  const double ratio_q3 =
      cannon_transmissions(p_of_q(3)) / tesseract_transmissions(p_of_q(3));
  const double ratio_q6 =
      cannon_transmissions(p_of_q(6)) / tesseract_transmissions(p_of_q(6));
  EXPECT_GT(ratio_q6, ratio_q3);
}

TEST(Formulas, MemoryEquations) {
  // eqs. (7)-(10) with a=b=c=n: Tesseract stores (2 + d) n^2 / p, Megatron
  // n^2 (1 + 2/p); Megatron needs p times more for the activation term.
  const double n = 1024;
  const double p = 64;
  const double d = 4;
  const double tess = tesseract_memory(n, n, n, p, d);
  const double mega = megatron_memory(n, n, n, p);
  EXPECT_DOUBLE_EQ(tess, (2.0 + d) * n * n / p);
  EXPECT_DOUBLE_EQ(mega, n * n * (1.0 + 2.0 / p));
  EXPECT_LT(tess, mega);
}

TEST(Formulas, EfficiencyBounds) {
  EXPECT_DOUBLE_EQ(efficiency(100.0, 4, 0.0), 1.0);
  EXPECT_LT(efficiency(100.0, 4, 10.0), 1.0);
  EXPECT_GT(efficiency(100.0, 4, 10.0), 0.0);
  // More communication -> lower efficiency.
  EXPECT_GT(efficiency(100.0, 4, 1.0), efficiency(100.0, 4, 5.0));
}

TEST(Formulas, IsoefficiencyOrdering) {
  // Megatron's isoefficiency W ~ p^3 grows faster than Optimus's
  // (sqrt(p) log p)^3 for large p: worse scalability.
  EXPECT_GT(megatron_isoefficiency(256) / optimus_isoefficiency(256), 1.0);
  // Depth reduces the required problem growth for Tesseract.
  EXPECT_LT(tesseract_isoefficiency(256, 4), tesseract_isoefficiency(256, 1));
}

TEST(Formulas, LowerBounds) {
  // 2.5-D bounds improve on 2-D with depth (eqs. 1-5).
  EXPECT_LT(d25_bandwidth_lower_bound(1024, 64, 4),
            cannon_bandwidth_lower_bound(1024, 64));
  EXPECT_LT(d25_latency_lower_bound(64, 4), cannon_latency_lower_bound(64));
  EXPECT_DOUBLE_EQ(d25_bandwidth_lower_bound(1024, 64, 1),
                   cannon_bandwidth_lower_bound(1024, 64));
}

// ---- table-shape sanity ---------------------------------------------------------

LayerDims table1_dims(std::int64_t batch) {
  return LayerDims{batch, /*seq=*/512, /*hidden=*/3072, /*heads=*/64};
}

TEST(TableShape, DepthHelpsAtEqualProcessorCount) {
  // Table 1's headline: Tesseract [4,4,4] beats [8,8,1] at 64 GPUs.
  EvalConfig deep{.scheme = Scheme::Tesseract, .q = 4, .d = 4,
                  .dims = table1_dims(16), .layers = 4};
  EvalConfig flat{.scheme = Scheme::Tesseract, .q = 8, .d = 1,
                  .dims = table1_dims(16), .layers = 4};
  const EvalResult rd = evaluate(deep);
  const EvalResult rf = evaluate(flat);
  EXPECT_LT(rd.fwd_seconds, rf.fwd_seconds);
  EXPECT_LT(rd.bwd_seconds, rf.bwd_seconds);
  EXPECT_GT(rd.throughput, rf.throughput);
}

TEST(TableShape, TesseractBeatsBaselinesAt64) {
  EvalConfig tess{.scheme = Scheme::Tesseract, .q = 4, .d = 4,
                  .dims = table1_dims(16), .layers = 4};
  EvalConfig mega{.scheme = Scheme::Megatron1D, .p = 64,
                  .dims = table1_dims(16), .layers = 4};
  EvalConfig opti{.scheme = Scheme::Optimus2D, .q = 8,
                  .dims = table1_dims(16), .layers = 4};
  const double t_tess = evaluate(tess).fwd_seconds;
  const double t_mega = evaluate(mega).fwd_seconds;
  const double t_opti = evaluate(opti).fwd_seconds;
  EXPECT_LT(t_tess, t_mega);
  EXPECT_LT(t_tess, t_opti);
}

TEST(TableShape, GreaterDepthReducesTimeAtFixedQ) {
  // Table 1, q = 4 block: depth 1 -> 2 -> 4 monotonically improves.
  double prev = 1e30;
  for (int d : {1, 2, 4}) {
    EvalConfig cfg{.scheme = Scheme::Tesseract, .q = 4, .d = d,
                   .dims = table1_dims(16), .layers = 4};
    const double t = evaluate(cfg).fwd_seconds;
    EXPECT_LT(t, prev) << "depth " << d;
    prev = t;
  }
}

TEST(TableShape, OptimusEqualsTesseractDepthOne) {
  EvalConfig opti{.scheme = Scheme::Optimus2D, .q = 4,
                  .dims = table1_dims(16), .layers = 2};
  EvalConfig tess{.scheme = Scheme::Tesseract, .q = 4, .d = 1,
                  .dims = table1_dims(16), .layers = 2};
  EXPECT_DOUBLE_EQ(evaluate(opti).fwd_seconds, evaluate(tess).fwd_seconds);
}

TEST(TableShape, MetricsDefinitions) {
  EvalConfig cfg{.scheme = Scheme::Tesseract, .q = 2, .d = 2,
                 .dims = table1_dims(16), .layers = 2};
  const EvalResult r = evaluate(cfg);
  EXPECT_NEAR(r.throughput, 1.0 / (r.fwd_seconds + r.bwd_seconds), 1e-9);
  EXPECT_NEAR(r.inference, 1.0 / r.fwd_seconds, 1e-9);
  EXPECT_GT(r.bwd_seconds, r.fwd_seconds);  // backward does ~2x the work
}

TEST(TableShape, ShapeStrings) {
  EvalConfig mega{.scheme = Scheme::Megatron1D, .p = 16};
  EvalConfig opti{.scheme = Scheme::Optimus2D, .q = 8};
  EvalConfig tess{.scheme = Scheme::Tesseract, .q = 4, .d = 2};
  EXPECT_EQ(mega.shape_string(), "[16]");
  EXPECT_EQ(opti.shape_string(), "[8,8]");
  EXPECT_EQ(tess.shape_string(), "[4,4,2]");
  EXPECT_EQ(mega.total_ranks(), 16);
  EXPECT_EQ(opti.total_ranks(), 64);
  EXPECT_EQ(tess.total_ranks(), 32);
}

TEST(TableShape, HalfPrecisionShrinksCommBoundTimes) {
  // fp16 halves every wire byte; comm-dominated configs speed up by close
  // to 2x, compute-dominated ones by less.
  EvalConfig cfg{.scheme = Scheme::Megatron1D, .p = 64,
                 .dims = table1_dims(12), .layers = 2};
  const double fp32 = evaluate(cfg).fwd_seconds;
  cfg.dims.elem_bytes = 2;
  const double fp16 = evaluate(cfg).fwd_seconds;
  EXPECT_LT(fp16, 0.65 * fp32);  // Megatron-64 is comm-bound
  EXPECT_GT(fp16, 0.45 * fp32);  // cannot beat the 2x wire reduction
}

TEST(TableShape, OrderingStableUnderHalfPrecision) {
  auto fwd16 = [&](Scheme s, int pq, int d) {
    EvalConfig cfg{.scheme = s, .p = pq, .q = pq, .d = d,
                   .dims = table1_dims(16), .layers = 2};
    cfg.dims.elem_bytes = 2;
    return evaluate(cfg).fwd_seconds;
  };
  const double tess = fwd16(Scheme::Tesseract, 4, 4);
  EXPECT_LT(tess, fwd16(Scheme::Megatron1D, 64, 1));
  EXPECT_LT(tess, fwd16(Scheme::Tesseract, 8, 1));
}

// The closed-form analytic model must track the exact phantom replay within
// a tolerance band across representative configurations (its documented
// contract; bench_model_validation prints the full table).
TEST(AnalyticModel, TracksPhantomReplay) {
  const std::vector<EvalConfig> cfgs = {
      {.scheme = Scheme::Megatron1D, .p = 4, .dims = table1_dims(12), .layers = 2},
      {.scheme = Scheme::Megatron1D, .p = 64, .dims = table1_dims(12), .layers = 2},
      {.scheme = Scheme::Optimus2D, .q = 4, .dims = table1_dims(12), .layers = 2},
      {.scheme = Scheme::Tesseract, .q = 2, .d = 2, .dims = table1_dims(12), .layers = 2},
      {.scheme = Scheme::Tesseract, .q = 4, .d = 4, .dims = table1_dims(16), .layers = 2},
      {.scheme = Scheme::Tesseract, .q = 8, .d = 1, .dims = table1_dims(12), .layers = 2},
  };
  for (const EvalConfig& cfg : cfgs) {
    const EvalResult replay = evaluate(cfg);
    const double fwd = analytic_forward_seconds(cfg);
    const double bwd = analytic_backward_seconds(cfg);
    EXPECT_GT(fwd, 0.6 * replay.fwd_seconds) << cfg.shape_string();
    EXPECT_LT(fwd, 1.6 * replay.fwd_seconds) << cfg.shape_string();
    EXPECT_GT(bwd, 0.6 * replay.bwd_seconds) << cfg.shape_string();
    EXPECT_LT(bwd, 1.6 * replay.bwd_seconds) << cfg.shape_string();
  }
}

TEST(AnalyticModel, BreakdownTellsTheSection31Story) {
  const topo::MachineSpec spec = topo::MachineSpec::meluxina();
  const LayerDims dims = table1_dims(16);
  const AnalyticBreakdown mega = analytic_megatron_forward(spec, 64, dims);
  const AnalyticBreakdown wide = analytic_tesseract_forward(spec, 8, 1, dims);
  const AnalyticBreakdown deep = analytic_tesseract_forward(spec, 4, 4, dims);
  // Megatron is dominated by activation all-reduces and moves no weights.
  EXPECT_GT(mega.activation_comm, 10 * mega.compute);
  EXPECT_EQ(mega.weight_comm, 0.0);
  // Depth slashes the activation term relative to the wide grid.
  EXPECT_LT(deep.activation_comm, 0.25 * wide.activation_comm);
  // ...at the price of more weight-panel traffic per rank.
  EXPECT_GT(deep.weight_comm, wide.weight_comm);
  // Totals: deep beats wide (Table 1's headline).
  EXPECT_LT(deep.total(), wide.total());
}

TEST(Report, MakeRowAndPrint) {
  EvalConfig cfg{.scheme = Scheme::Tesseract, .q = 2, .d = 1,
                 .dims = LayerDims{12, 64, 128, 8}, .layers = 1};
  const EvalResult r = evaluate(cfg);
  const TableRow row = make_row(cfg, r);
  EXPECT_EQ(row.parallelization, "Tesseract");
  EXPECT_EQ(row.gpus, 4);
  EXPECT_EQ(row.batch, 12);
  std::ostringstream os;
  print_table(os, "Table X", {row});
  EXPECT_NE(os.str().find("Tesseract"), std::string::npos);
  EXPECT_NE(os.str().find("[2,2,1]"), std::string::npos);
}

}  // namespace
}  // namespace tsr::perf
