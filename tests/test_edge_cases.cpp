// API-misuse and boundary coverage across modules: every public precondition
// should fail loudly with a descriptive exception, and degenerate-but-legal
// configurations (single rank, depth 1, one-element tensors) must work.
#include <gtest/gtest.h>

#include "comm/communicator.hpp"
#include "nn/transformer.hpp"
#include "parallel/dist.hpp"
#include "parallel/tesseract_transformer.hpp"
#include "pdgemm/tesseract_mm.hpp"
#include "perf/cost_model.hpp"
#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/kernels.hpp"

namespace tsr {
namespace {

// ---- degenerate-but-legal ----------------------------------------------------

TEST(Degenerate, SingleRankWorldRunsEverything) {
  comm::World world(1, topo::MachineSpec::meluxina());
  world.run([&](comm::Communicator& c) {
    EXPECT_EQ(c.size(), 1);
    std::vector<float> v{3.0f};
    c.all_reduce(v);
    EXPECT_EQ(v[0], 3.0f);
    c.broadcast(v, 0);
    c.barrier();
    std::vector<float> out(1);
    c.all_gather(v, out);
    EXPECT_EQ(out[0], 3.0f);
    // [1,1,1] Tesseract == serial execution.
    par::TesseractContext ctx(c, 1, 1);
    Rng rng(1);
    par::TesseractTransformerLayer layer(ctx, 8, 2, rng);
    Tensor x = random_normal({2, 3, 8}, rng);
    Tensor y = layer.forward(x);
    EXPECT_EQ(y.shape(), x.shape());
  });
}

TEST(Degenerate, OneElementTensors) {
  Tensor t = Tensor::ones({1});
  EXPECT_FLOAT_EQ(sum(t), 1.0f);
  Tensor m = matmul(Tensor::ones({1, 1}), Tensor::full({1, 1}, 2.0f));
  EXPECT_FLOAT_EQ(m.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(t, t.clone()), 0.0f);
}

TEST(Degenerate, EmptyTensorOperations) {
  Tensor e;
  EXPECT_TRUE(e.empty());
  Tensor c = e.clone();
  EXPECT_TRUE(c.empty());
  e.fill(1.0f);  // no-op, no crash
  EXPECT_FLOAT_EQ(sum(e), 0.0f);
}

TEST(Degenerate, ZeroDimensionGemm) {
  Tensor a({0, 4});
  Tensor b({4, 3});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.dim(0), 0);
  EXPECT_EQ(c.dim(1), 3);
}

// ---- misuse: tensors ----------------------------------------------------------

TEST(Misuse, TensorChecks) {
  Tensor t({2, 3});
  EXPECT_THROW(t.reshape({7}), std::invalid_argument);
  EXPECT_THROW((void)Tensor::from({1.0f}, {2}), std::invalid_argument);
  EXPECT_THROW(hcat({}), std::invalid_argument);
  EXPECT_THROW(vcat({Tensor({2, 2}), Tensor({2, 3})}), std::invalid_argument);
  EXPECT_THROW(transpose2d(Tensor({2, 2, 2})), std::invalid_argument);
  EXPECT_THROW(add_bias(t, Tensor({4})), std::invalid_argument);
}

// ---- misuse: collectives --------------------------------------------------------

TEST(Misuse, CollectiveRootOutOfRange) {
  comm::World world(2);
  EXPECT_THROW(world.run([&](comm::Communicator& c) {
                 std::vector<float> v(4);
                 c.broadcast(v, 5);
               }),
               std::invalid_argument);
}

TEST(Misuse, ReduceScatterSizeMismatch) {
  comm::World world(2);
  EXPECT_THROW(world.run([&](comm::Communicator& c) {
                 std::vector<float> data(5);  // not 2 * out
                 std::vector<float> out(2);
                 c.reduce_scatter(data, out);
               }),
               std::invalid_argument);
}

TEST(Misuse, AllToAllIndivisible) {
  comm::World world(3);
  EXPECT_THROW(world.run([&](comm::Communicator& c) {
                 std::vector<float> in(4), out(4);  // 4 % 3 != 0
                 c.all_to_all(in, out);
               }),
               std::invalid_argument);
}

TEST(Misuse, WorldRankOutOfRange) {
  comm::World world(2);
  EXPECT_THROW((void)world.comm(2), std::invalid_argument);
  EXPECT_THROW((void)world.comm(-1), std::invalid_argument);
}

// ---- misuse: grids and layers -----------------------------------------------------

TEST(Misuse, DistributeActivationDivisibility) {
  comm::World world(4);
  world.run([&](comm::Communicator& c) {
    pdg::TesseractComms tc = pdg::TesseractComms::create(c, 2, 1);
    Rng rng(1);
    Tensor bad_batch = random_normal({3, 2, 8}, rng);  // 3 % 2 != 0
    EXPECT_THROW((void)par::distribute_activation(tc, bad_batch),
                 std::invalid_argument);
    Tensor bad_hidden = random_normal({4, 2, 9}, rng);  // 9 % 2 != 0
    EXPECT_THROW((void)par::distribute_activation(tc, bad_hidden),
                 std::invalid_argument);
    Tensor not_3d = random_normal({4, 8}, rng);
    EXPECT_THROW((void)par::distribute_activation(tc, not_3d),
                 std::invalid_argument);
  });
}

TEST(Misuse, AttentionHeadDivisibility) {
  comm::World world(4);
  EXPECT_THROW(world.run([&](comm::Communicator& c) {
                 par::TesseractContext ctx(c, 2, 1);
                 Rng rng(1);
                 // heads = 3 not divisible by q = 2
                 par::TesseractAttention attn(ctx, 12, 3, rng);
               }),
               std::invalid_argument);
}

TEST(Misuse, PhantomDimsDivisibility) {
  auto replay = [](perf::LayerDims dims) {
    const perf::EvalConfig cfg{.scheme = perf::Scheme::Tesseract,
                               .q = 2,
                               .d = 1,
                               .dims = dims,
                               .layers = 1};
    comm::World world(cfg.total_ranks());
    world.run([&](comm::Communicator& c) {
      perf::replay_schedule(cfg, c, /*backward=*/false);
    });
  };
  // hidden 9 % q 2 != 0
  EXPECT_THROW(replay(perf::LayerDims{4, 2, 9, 2}), std::invalid_argument);
  // heads 3 % q 2 != 0 (hidden 12 splits into heads of 4)
  EXPECT_THROW(replay(perf::LayerDims{4, 2, 12, 3}), std::invalid_argument);
  EXPECT_NO_THROW(replay(perf::LayerDims{4, 2, 12, 2}));
}

TEST(Misuse, TransformerNeedsLayers) {
  Rng rng(1);
  EXPECT_THROW(nn::TransformerEncoder({8, 2, 0, 4}, rng),
               std::invalid_argument);
}

// ---- behavioral edges ---------------------------------------------------------------

TEST(Edge, PipelinedVsBinomialBroadcastBothCorrect) {
  // Straddle the 64 KiB protocol switch; results identical either side.
  comm::World world(4);
  world.run([&](comm::Communicator& c) {
    for (std::int64_t count : {std::int64_t{100}, std::int64_t{20000}}) {
      std::vector<float> data(static_cast<std::size_t>(count));
      if (c.rank() == 1) {
        for (std::int64_t i = 0; i < count; ++i) {
          data[static_cast<std::size_t>(i)] = static_cast<float>(i % 13);
        }
      }
      c.broadcast(data, 1);
      for (std::int64_t i = 0; i < count; ++i) {
        ASSERT_EQ(data[static_cast<std::size_t>(i)],
                  static_cast<float>(i % 13));
      }
    }
  });
}

TEST(Edge, PipelinedReduceRaggedCount) {
  // Large payload whose count does not divide the group: ragged ring chunks.
  comm::World world(3);
  world.run([&](comm::Communicator& c) {
    const std::int64_t count = 20001;  // > 64 KiB, 20001 % 3 == 0? (0) use 20002
    std::vector<float> data(static_cast<std::size_t>(count + 1), 1.0f);
    c.reduce(data, 0);
    if (c.rank() == 0) {
      for (float v : data) ASSERT_EQ(v, 3.0f);
    }
  });
}

TEST(Edge, DepthOneTesseractHasNoDepthCollectives) {
  comm::World world(4, topo::MachineSpec::meluxina());
  Rng rng(1);
  Tensor x = random_normal({4, 2, 8}, rng);
  Tensor dy = random_normal({4, 2, 8}, rng);
  world.run([&](comm::Communicator& c) {
    par::TesseractContext ctx(c, 2, 1);
    Rng wrng(2);
    par::TesseractTransformerLayer layer(ctx, 8, 2, wrng);
    (void)layer.forward(par::distribute_activation(ctx.comms(), x));
    (void)layer.backward(par::distribute_activation(ctx.comms(), dy));
    EXPECT_EQ(ctx.comms().depth.size(), 1);
  });
}

TEST(Edge, CollectActivationRoundTripLargeGrid) {
  comm::World world(18);  // [3,3,2]
  Rng rng(7);
  Tensor x = random_normal({12, 2, 9}, rng);
  world.run([&](comm::Communicator& c) {
    pdg::TesseractComms tc = pdg::TesseractComms::create(c, 3, 2);
    Tensor local = par::distribute_activation(tc, x);
    EXPECT_EQ(local.shape(), (Shape{2, 2, 3}));
    Tensor back = par::collect_activation(tc, local, 12, 2, 9);
    EXPECT_FLOAT_EQ(max_abs_diff(back, x), 0.0f);
  });
}

}  // namespace
}  // namespace tsr
