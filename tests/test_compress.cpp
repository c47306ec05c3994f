// bf16 wire compression: encode/decode identity against the bf16 rounding
// primitive, the compressed all-reduce's all-rank agreement, its halved wire
// bytes, bit-identity across all three scheduler backends, tolerance vs the
// uncompressed reduction, and the TESSERACT_COMPRESS_DEPTH gating of the
// Tesseract depth sites.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/compress.hpp"
#include "pdgemm/tesseract_mm.hpp"
#include "runtime/config.hpp"
#include "scoped_config.hpp"
#include "tensor/bf16.hpp"

namespace tsr::comm {
namespace {

std::vector<float> rank_data(int rank, std::int64_t n) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint32_t h =
        (static_cast<std::uint32_t>(i) + 1000u * static_cast<std::uint32_t>(rank) + 1u) *
        2654435761u;
    // Mixed signs and magnitudes, gradient-like.
    v[static_cast<std::size_t>(i)] =
        (static_cast<float>(h % 20001u) - 10000.0f) / 10000.0f;
  }
  return v;
}

// ---- encode/decode ---------------------------------------------------------

TEST(Bf16Wire, PackedCountIsCeilHalf) {
  EXPECT_EQ(bf16_packed_count(0), 0);
  EXPECT_EQ(bf16_packed_count(1), 1);
  EXPECT_EQ(bf16_packed_count(2), 1);
  EXPECT_EQ(bf16_packed_count(7), 4);
  EXPECT_EQ(bf16_packed_count(8), 4);
}

TEST(Bf16Wire, RoundTripEqualsBf16RoundExactly) {
  for (std::int64_t n : {1, 2, 7, 64, 129}) {
    const std::vector<float> src = rank_data(3, n);
    std::vector<float> wire(static_cast<std::size_t>(bf16_packed_count(n)));
    std::vector<float> back(static_cast<std::size_t>(n));
    bf16_compress(src.data(), n, wire.data());
    bf16_decompress(wire.data(), n, back.data());
    for (std::int64_t i = 0; i < n; ++i) {
      // Exact: decode(encode(x)) is bf16_round(x) bit for bit.
      EXPECT_EQ(back[static_cast<std::size_t>(i)],
                bf16_round(src[static_cast<std::size_t>(i)]))
          << "n=" << n << " i=" << i;
    }
  }
}

// ---- compressed all-reduce -------------------------------------------------

// One compressed all-reduce over `ranks` ranks and `n` elements; returns
// rank 0's result and (optionally) asserts every rank got identical bits.
std::vector<float> run_compressed(int ranks, std::int64_t n,
                                  CommStats* total = nullptr) {
  std::vector<std::vector<float>> results(static_cast<std::size_t>(ranks));
  World world(ranks);
  world.run([&](Communicator& c) {
    std::vector<float> data = rank_data(c.rank(), n);
    c.all_reduce_compressed(std::span<float>(data.data(), data.size()));
    results[static_cast<std::size_t>(c.rank())] = std::move(data);
  });
  if (total != nullptr) *total = world.total_stats();
  for (int r = 1; r < ranks; ++r) {
    EXPECT_EQ(0, std::memcmp(results[0].data(),
                             results[static_cast<std::size_t>(r)].data(),
                             static_cast<std::size_t>(n) * sizeof(float)))
        << "rank " << r << " disagrees with rank 0";
  }
  return results[0];
}

TEST(CompressedAllReduce, AllRanksIdenticalAndCloseToExact) {
  const std::int64_t n = 1031;  // odd: exercises the half-filled last slot
  for (int ranks : {2, 4, 5}) {
    const std::vector<float> got = run_compressed(ranks, n);
    // Exact fp32 reduction for comparison.
    std::vector<float> exact(static_cast<std::size_t>(n), 0.0f);
    for (int r = 0; r < ranks; ++r) {
      const std::vector<float> d = rank_data(r, n);
      for (std::int64_t i = 0; i < n; ++i)
        exact[static_cast<std::size_t>(i)] += d[static_cast<std::size_t>(i)];
    }
    // Each of the <= ranks hops adds one bf16 storage rounding (rel ~2^-9);
    // with |element| <= 1 and up to `ranks` terms, absolute error stays well
    // under ranks * 2^-7.
    const float tol = static_cast<float>(ranks) / 128.0f;
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[static_cast<std::size_t>(i)],
                  exact[static_cast<std::size_t>(i)], tol)
          << "ranks=" << ranks << " i=" << i;
    }
  }
}

TEST(CompressedAllReduce, HalvesWireBytes) {
  const std::int64_t n = 1024;
  const int ranks = 4;
  CommStats comp_stats;
  run_compressed(ranks, n, &comp_stats);

  CommStats plain_stats;
  {
    World world(ranks);
    world.run([&](Communicator& c) {
      std::vector<float> data = rank_data(c.rank(), n);
      c.all_reduce(std::span<float>(data.data(), data.size()));
    });
    plain_stats = world.total_stats();
  }

  // Logical accounting: 2 bytes/element instead of 4, per rank.
  const auto& comp = comp_stats.collectives.at("all_reduce_compressed");
  const auto& plain = plain_stats.collectives.at("all_reduce");
  EXPECT_EQ(comp.bytes, ranks * 2 * n);
  EXPECT_EQ(plain.bytes, ranks * 4 * n);
  // Wire accounting: same ring schedule, half the payload bytes.
  EXPECT_EQ(comp_stats.msgs_sent, plain_stats.msgs_sent);
  EXPECT_EQ(comp_stats.bytes_sent * 2, plain_stats.bytes_sent);
}

TEST(CompressedAllReduce, BitIdenticalAcrossBackends) {
  struct Backend {
    const char* label;
    bool threads;  // RunConfig::spmd_threads
    int workers;   // 0 = the configured count
  };
  const Backend kMatrix[] = {
      {"fibers-w1", false, 1},
      {"fibers-w4", false, 4},
      {"threads", true, 0},
  };
  ScopedRunConfig cfg;
  const std::int64_t n = 517;
  std::vector<float> reference;
  for (const Backend& b : kMatrix) {
    cfg->spmd_threads = b.threads;
    if (b.workers > 0) cfg->workers = b.workers;
    const std::vector<float> got = run_compressed(4, n);
    if (reference.empty()) {
      reference = got;
    } else {
      EXPECT_EQ(0, std::memcmp(reference.data(), got.data(),
                               static_cast<std::size_t>(n) * sizeof(float)))
          << "backend " << b.label << " diverges";
    }
  }
}

TEST(CompressedAllReduce, SingleRankIsIdentity) {
  World world(1);
  world.run([&](Communicator& c) {
    std::vector<float> data = rank_data(0, 33);
    const std::vector<float> before = data;
    c.all_reduce_compressed(std::span<float>(data.data(), data.size()));
    EXPECT_EQ(0, std::memcmp(before.data(), data.data(),
                             before.size() * sizeof(float)));
  });
}

// ---- gating ----------------------------------------------------------------

TEST(CompressDepthGate, EnvParsing) {
  const auto parse = [](const char* value) {
    return parse_run_config(fake_env({{"TESSERACT_COMPRESS_DEPTH", value}}))
        .compress_depth;
  };
  EXPECT_FALSE(parse_run_config(fake_env({})).compress_depth);
  EXPECT_FALSE(parse("0"));
  EXPECT_TRUE(parse("1"));
  EXPECT_TRUE(parse("true"));
  EXPECT_FALSE(parse(""));
}

TEST(CompressDepthGate, TesseractDepthAllReduceSwitchesCollective) {
  ScopedRunConfig cfg;
  const int q = 2, d = 2;
  const std::int64_t rows = 24, inner = 8, cols = 8;
  // Per-rank partials; the atb depth reduction sums them across layers.
  for (const bool compressed : {false, true}) {
    cfg->compress_depth = compressed;
    World world(q * q * d);
    world.run([&](Communicator& c) {
      pdg::TesseractComms tc = pdg::TesseractComms::create(c, q, d);
      Tensor a({rows / (q * d), inner / q});
      Tensor b({rows / (q * d), cols / q});
      a.fill(0.25f + 0.5f * static_cast<float>(tc.k));
      b.fill(1.0f);
      (void)pdg::tesseract_atb_local(tc, a, b);
    });
    const CommStats total = world.total_stats();
    const bool has_compressed =
        total.collectives.count("all_reduce_compressed") > 0;
    EXPECT_EQ(has_compressed, compressed);
  }
}

}  // namespace
}  // namespace tsr::comm
