// Collective-granularity phantom collectives against their message-level
// oracle. A plain World simulates each phantom collective at a rendezvous:
// the first two calls of a (communicator, kind, root, bytes) key replay the
// members' recorded schedules, the second also compiles them, and every
// later call runs the compiled program. The same program on a World with
// metrics enabled sends every empty message through the mailboxes. Every
// member's clock after every call must match bit for bit, and its CommStats
// exactly, on every scheduler backend: group sizes 2..64, both sides of the
// 64 KiB pipelined threshold, ragged byte counts, every root, each key
// issued three times from differently staggered clocks, stragglers, intra-
// and inter-node links, row and column sub-communicators in flight at once,
// and two communicators over the same ranks. The paper's layer replays run
// their layer loops through Communicator::repeat, whose steady state is a
// segment program; they must match the message path as well, and bodies
// that cannot be a segment program must fall back to the plain loop.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "perf/cost_model.hpp"
#include "scoped_config.hpp"

namespace tsr::comm {
namespace {

// Scheduler configurations every case runs under.
struct Backend {
  const char* name;
  bool threads;  // RunConfig::spmd_threads
  int workers;
};
constexpr Backend kBackends[] = {
    {"fibers W=1", false, 1},
    {"fibers W=4", false, 4},
    {"threads", true, 1},
};

topo::MachineSpec spec_with_nodes_of(int gpus_per_node) {
  topo::MachineSpec spec = topo::MachineSpec::meluxina();
  spec.gpus_per_node = gpus_per_node;
  return spec;
}

// One rank's state right after a collective.
struct Snapshot {
  double t = 0.0;
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
  std::int64_t intra = 0;
  std::int64_t inter = 0;
};

using Program = std::function<void(Communicator&, std::vector<Snapshot>&)>;

struct Outcome {
  std::vector<std::vector<Snapshot>> snaps;  // per world rank
  std::vector<CommStats> stats;
  std::uint64_t replays = 0;
  std::uint64_t compiled_runs = 0;
};

void snap(Communicator& c, std::vector<Snapshot>& out) {
  const CommStats& s = c.stats();
  out.push_back({c.clock().now(), s.msgs_sent, s.bytes_sent,
                 s.bytes_intra_node, s.bytes_inter_node});
}

// Charges rank- and step-dependent local work before a collective so the
// members enter it at staggered clocks.
void stagger(Communicator& c, int step) {
  c.clock().advance(1e-6 * ((c.world_rank() * 7 + step * 3) % 11));
}

Outcome run(int n, const topo::MachineSpec& spec, bool oracle,
            const Program& program) {
  World world(n, spec);
  if (oracle) world.enable_metrics();  // forces the message path
  for (int r = 0; r < n; ++r) {
    world.clock(r).reset(1e-7 * r);
    if (r % 3 == 1) world.clock(r).set_slowdown(1.75);  // stragglers
  }
  Outcome out;
  out.snaps.resize(static_cast<std::size_t>(n));
  world.run([&](Communicator& c) {
    program(c, out.snaps[static_cast<std::size_t>(c.rank())]);
  });
  for (int r = 0; r < n; ++r) out.stats.push_back(world.stats(r));
  out.replays = world.rendezvous().counts().replays;
  out.compiled_runs = world.rendezvous().counts().compiled_runs;
  return out;
}

void expect_same(const Outcome& fast, const Outcome& oracle,
                 const std::string& label) {
  ASSERT_EQ(fast.snaps.size(), oracle.snaps.size()) << label;
  for (std::size_t r = 0; r < fast.snaps.size(); ++r) {
    const auto& a = fast.snaps[r];
    const auto& b = oracle.snaps[r];
    ASSERT_EQ(a.size(), b.size()) << label << " rank " << r;
    for (std::size_t k = 0; k < a.size(); ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a[k].t),
                std::bit_cast<std::uint64_t>(b[k].t))
          << label << " rank " << r << " call " << k << ": " << a[k].t
          << " vs " << b[k].t;
      ASSERT_EQ(a[k].msgs, b[k].msgs) << label << " rank " << r << " call " << k;
      ASSERT_EQ(a[k].bytes, b[k].bytes) << label << " rank " << r << " call " << k;
      ASSERT_EQ(a[k].intra, b[k].intra) << label << " rank " << r << " call " << k;
      ASSERT_EQ(a[k].inter, b[k].inter) << label << " rank " << r << " call " << k;
    }
    const CommStats& sa = fast.stats[r];
    const CommStats& sb = oracle.stats[r];
    EXPECT_EQ(sa.msgs_sent, sb.msgs_sent) << label << " rank " << r;
    EXPECT_EQ(sa.bytes_sent, sb.bytes_sent) << label << " rank " << r;
    EXPECT_EQ(sa.bytes_intra_node, sb.bytes_intra_node) << label << " rank " << r;
    EXPECT_EQ(sa.bytes_inter_node, sb.bytes_inter_node) << label << " rank " << r;
    ASSERT_EQ(sa.collectives.size(), sb.collectives.size()) << label;
    for (const auto& [name, op] : sb.collectives) {
      const auto it = sa.collectives.find(name);
      ASSERT_NE(it, sa.collectives.end()) << label << " " << name;
      EXPECT_EQ(it->second.calls, op.calls) << label << " " << name;
      EXPECT_EQ(it->second.bytes, op.bytes) << label << " " << name;
    }
  }
  EXPECT_GT(fast.replays, 0u) << label << ": fast path never engaged";
  EXPECT_GT(fast.compiled_runs, 0u) << label << ": no compiled program ran";
  EXPECT_EQ(oracle.replays, 0u) << label << ": oracle left the message path";
  EXPECT_EQ(oracle.compiled_runs, 0u)
      << label << ": oracle left the message path";
}

void check_on_every_backend(int n, const topo::MachineSpec& spec,
                            const Program& program, const std::string& label) {
  ScopedRunConfig cfg;
  for (const Backend& b : kBackends) {
    cfg->spmd_threads = b.threads;
    cfg->workers = b.workers;
    expect_same(run(n, spec, /*oracle=*/false, program),
                run(n, spec, /*oracle=*/true, program),
                label + " [" + b.name + "]");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Byte counts straddling the 64 KiB protocol switch, plus ragged ones (not
// divisible by 4 * g, nor by 4) and the zero-byte edge.
std::vector<std::int64_t> byte_counts(int g) {
  return {0, 7, 4 * g * 3 + 1, 65535, 65536, 65536 + 4 * g + 2,
          3 * 65536 + 5};
}

// Each key is issued this many times, so the third call onwards runs the
// program the second compiled.
constexpr int kRepeats = 3;

// Every collective at every byte count; broadcast and reduce from roots in
// `roots`. Every call is issued kRepeats times in a row, each from freshly
// staggered clocks.
Program all_collectives(int g, const std::vector<int>& roots) {
  return [g, roots](Communicator& c, std::vector<Snapshot>& out) {
    int step = 0;
    auto repeat = [&](const std::function<void()>& call) {
      for (int k = 0; k < kRepeats; ++k) {
        stagger(c, step++);
        call();
        snap(c, out);
      }
    };
    for (std::int64_t bytes : byte_counts(g)) {
      for (int root : roots) {
        repeat([&] { c.phantom_broadcast(root, bytes); });
        repeat([&] { c.phantom_reduce(root, bytes); });
      }
      repeat([&] { c.phantom_all_reduce(bytes); });
      repeat([&] { c.phantom_all_gather(bytes); });
      repeat([&] { c.phantom_reduce_scatter(bytes); });
    }
  };
}

std::vector<int> every_root(int g) {
  std::vector<int> roots;
  for (int r = 0; r < g; ++r) roots.push_back(r);
  return roots;
}

struct GroupCase {
  int g;
  int gpus_per_node;
};

class PhantomOracle : public ::testing::TestWithParam<GroupCase> {};

TEST_P(PhantomOracle, EveryCollectiveEveryRoot) {
  const auto [g, per_node] = GetParam();
  check_on_every_backend(g, spec_with_nodes_of(per_node),
                         all_collectives(g, every_root(g)),
                         "g=" + std::to_string(g) +
                             " gpus_per_node=" + std::to_string(per_node));
}

// g = 2 and 3 fit in one node of 4 (intra only); 5 and 8 span nodes; one
// GPU per node makes every link inter-node.
INSTANTIATE_TEST_SUITE_P(
    Groups, PhantomOracle,
    ::testing::Values(GroupCase{2, 4}, GroupCase{3, 4}, GroupCase{5, 4},
                      GroupCase{8, 4}, GroupCase{2, 1}, GroupCase{3, 1},
                      GroupCase{5, 1}, GroupCase{8, 1}, GroupCase{8, 8}),
    [](const ::testing::TestParamInfo<GroupCase>& info) {
      return std::string("g") + std::to_string(info.param.g) + "_per_node" +
             std::to_string(info.param.gpus_per_node);
    });

// 64 ranks over 16 nodes. Every root would be 64 x 7 sizes x 2 ops of
// 64-rank message-level oracles per backend, so the roots are sampled:
// both ends, a node boundary and a node interior.
TEST(PhantomOracle64, PaperScaleWorld) {
  check_on_every_backend(64, spec_with_nodes_of(4),
                         all_collectives(64, {0, 3, 4, 37, 63}), "g=64");
}

// Rows (intra-node) and columns (inter-node) of a 4 x 4 grid run their
// collectives concurrently: the meetings of different groups are in flight
// at once, and a row's call k shares its sequence number with a column's.
// A second handle on each row (the same communicator id) and a split of the
// world (same ranks, another id) interleave their calls with the first
// ones, and rows and columns issue one key in common over different links
// (each communicator compiles its own program of it).
// The whole schedule runs three times, so every key also runs compiled.
TEST(PhantomOracle64, RowAndColumnSubcommunicatorsInFlight) {
  constexpr int q = 4;
  const Program grid = [](Communicator& c, std::vector<Snapshot>& out) {
    const int i = c.rank() / q;
    const int j = c.rank() % q;
    std::vector<int> row_ranks, col_ranks;
    for (int t = 0; t < q; ++t) {
      row_ranks.push_back(i * q + t);
      col_ranks.push_back(t * q + j);
    }
    Communicator row = c.subgroup(row_ranks);
    Communicator col = c.subgroup(col_ranks);
    Communicator row_again = c.subgroup(row_ranks);
    Communicator world_split = c.split(0, c.rank());
    int step = 0;
    for (int pass = 0; pass < kRepeats; ++pass) {
      for (std::int64_t bytes : byte_counts(q)) {
        for (int root = 0; root < q; ++root) {
          stagger(c, step++);
          row.phantom_broadcast(root, bytes);
          snap(c, out);
          col.phantom_reduce((root + 1) % q, bytes);
          snap(c, out);
        }
        col.phantom_all_reduce(bytes);
        snap(c, out);
        row.phantom_reduce_scatter(bytes);
        snap(c, out);
        stagger(c, step++);
        row.phantom_all_gather(bytes);
        snap(c, out);
        col.phantom_all_gather(bytes + 4);
        snap(c, out);
        c.phantom_all_reduce(bytes);  // the whole grid
        snap(c, out);
        stagger(c, step++);
        row_again.phantom_broadcast(1, bytes);
        snap(c, out);
        row.phantom_broadcast(1, bytes);
        snap(c, out);
        col.phantom_broadcast(1, bytes);  // same key, inter-node links
        snap(c, out);
        world_split.phantom_all_reduce(bytes);
        snap(c, out);
        world_split.phantom_reduce(2, bytes);
        snap(c, out);
        c.phantom_reduce(2, bytes);
        snap(c, out);
      }
    }
  };
  check_on_every_backend(q * q, spec_with_nodes_of(q), grid, "4x4 grid");
}

// Members that receive nothing (a small broadcast's root, a reduce tree's
// leaves) never wait, so they can run many calls of one key ahead of their
// group, more than the plan has meeting slots for.
TEST(PhantomOracle64, DetachedMembersRunAheadOfTheirGroup) {
  const Program ahead = [](Communicator& c, std::vector<Snapshot>& out) {
    for (int k = 0; k < 12; ++k) {
      stagger(c, k);
      c.phantom_broadcast(0, 4096);
      snap(c, out);
    }
    for (int k = 0; k < 12; ++k) {
      stagger(c, k);
      c.phantom_reduce(k % 2, 100);
      snap(c, out);
    }
    c.phantom_all_reduce(4096);  // the laggards catch up
    snap(c, out);
  };
  check_on_every_backend(8, spec_with_nodes_of(4), ahead, "run-ahead");
}

// A single-member group has nothing to simulate: no meeting, no messages.
TEST(PhantomOracle64, SingleMemberGroupsSkipTheRendezvous) {
  World world(2, topo::MachineSpec::meluxina());
  world.run([&](Communicator& c) {
    Communicator self = c.subgroup({c.world_rank()});
    self.phantom_all_reduce(1 << 20);
    self.phantom_broadcast(0, 1 << 20);
    EXPECT_EQ(c.clock().now(), 0.0);
  });
  EXPECT_EQ(world.rendezvous().counts().replays, 0u);
  EXPECT_EQ(world.total_stats().msgs_sent, 0);
  EXPECT_EQ(world.total_stats().collective_calls(), 4);
}

// ---- Layer loops through Communicator::repeat ------------------------------

struct ReplayOutcome {
  std::vector<double> after_fwd;  // per world rank
  std::vector<double> after_bwd;
  std::vector<CommStats> stats;
  PhantomCounts counts;
};

// Replays `layers` forward layers, then as many backward ones, from
// staggered clocks with stragglers. `repeat` runs perf::replay_schedule
// (Communicator::repeat); otherwise the layer loop is written out, the
// per-collective path as it was before repeat existed.
ReplayOutcome replay_layers(const perf::EvalConfig& cfg, bool oracle,
                            bool repeat) {
  const int n = cfg.total_ranks();
  World world(n, cfg.spec);
  if (oracle) world.enable_metrics();  // forces the message path
  for (int r = 0; r < n; ++r) {
    world.clock(r).reset(1e-7 * r);
    if (r % 3 == 1) world.clock(r).set_slowdown(1.75);
  }
  ReplayOutcome out;
  out.after_fwd.resize(static_cast<std::size_t>(n));
  out.after_bwd.resize(static_cast<std::size_t>(n));
  world.run([&](Communicator& c) {
    for (const bool backward : {false, true}) {
      if (repeat) {
        perf::replay_schedule(cfg, c, backward);
      } else if (cfg.scheme == perf::Scheme::Megatron1D) {
        for (int l = 0; l < cfg.layers; ++l) {
          backward ? perf::phantom_megatron_backward(c, cfg.dims)
                   : perf::phantom_megatron_forward(c, cfg.dims);
        }
      } else {
        pdg::TesseractComms tc = pdg::TesseractComms::create(
            c, cfg.q, cfg.scheme == perf::Scheme::Optimus2D ? 1 : cfg.d);
        for (int l = 0; l < cfg.layers; ++l) {
          backward ? perf::phantom_tesseract_backward(tc, cfg.dims)
                   : perf::phantom_tesseract_forward(tc, cfg.dims);
        }
      }
      auto& after = backward ? out.after_bwd : out.after_fwd;
      after[static_cast<std::size_t>(c.world_rank())] = c.clock().now();
    }
  });
  for (int r = 0; r < n; ++r) out.stats.push_back(world.stats(r));
  out.counts = world.rendezvous().counts();
  return out;
}

void expect_same_replay(const ReplayOutcome& a, const ReplayOutcome& b,
                        const std::string& label) {
  ASSERT_EQ(a.stats.size(), b.stats.size()) << label;
  for (std::size_t r = 0; r < a.stats.size(); ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.after_fwd[r]),
              std::bit_cast<std::uint64_t>(b.after_fwd[r]))
        << label << " rank " << r << " forward: " << a.after_fwd[r] << " vs "
        << b.after_fwd[r];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.after_bwd[r]),
              std::bit_cast<std::uint64_t>(b.after_bwd[r]))
        << label << " rank " << r << " backward: " << a.after_bwd[r]
        << " vs " << b.after_bwd[r];
    const CommStats& sa = a.stats[r];
    const CommStats& sb = b.stats[r];
    EXPECT_EQ(sa.msgs_sent, sb.msgs_sent) << label << " rank " << r;
    EXPECT_EQ(sa.bytes_sent, sb.bytes_sent) << label << " rank " << r;
    EXPECT_EQ(sa.bytes_intra_node, sb.bytes_intra_node) << label;
    EXPECT_EQ(sa.bytes_inter_node, sb.bytes_inter_node) << label;
    ASSERT_EQ(sa.collectives.size(), sb.collectives.size()) << label;
    for (const auto& [name, op] : sb.collectives) {
      const auto it = sa.collectives.find(name);
      ASSERT_NE(it, sa.collectives.end()) << label << " " << name;
      EXPECT_EQ(it->second.calls, op.calls) << label << " " << name;
      EXPECT_EQ(it->second.bytes, op.bytes) << label << " " << name;
    }
  }
}

struct ReplayCase {
  perf::Scheme scheme;
  int p, q, d;
};

class RepeatOracle : public ::testing::TestWithParam<ReplayCase> {};

TEST_P(RepeatOracle, LayerLoopsMatchTheMessagePath) {
  const ReplayCase rc = GetParam();
  perf::EvalConfig cfg;
  cfg.scheme = rc.scheme;
  cfg.p = rc.p;
  cfg.q = rc.q;
  cfg.d = rc.d;
  // Weight broadcasts cross the 64 KiB protocol switch; activations do not.
  cfg.dims = perf::LayerDims{/*batch=*/8, /*seq=*/32, /*hidden=*/256,
                             /*heads=*/8};
  ScopedRunConfig run_cfg;
  for (const int layers : {1, 2, 3, 5}) {
    cfg.layers = layers;
    for (const Backend& b : kBackends) {
      run_cfg->spmd_threads = b.threads;
      run_cfg->workers = b.workers;
      const std::string label = cfg.shape_string() + " layers=" +
                                std::to_string(layers) + " [" + b.name + "]";
      const ReplayOutcome fast = replay_layers(cfg, false, true);
      const ReplayOutcome loop = replay_layers(cfg, false, false);
      const ReplayOutcome oracle = replay_layers(cfg, true, true);
      expect_same_replay(fast, oracle, label + " repeat vs messages");
      expect_same_replay(loop, oracle, label + " loop vs messages");
      EXPECT_EQ(fast.counts.replays, loop.counts.replays) << label;
      EXPECT_EQ(fast.counts.compiles, loop.counts.compiles) << label;
      EXPECT_EQ(fast.counts.compiled_runs, loop.counts.compiled_runs) << label;
      // Forward and backward each skip layers - 2 iterations.
      EXPECT_EQ(fast.counts.segment_runs,
                layers > 2 ? 2u * static_cast<unsigned>(layers - 2) : 0u)
          << label;
      EXPECT_EQ(loop.counts.segment_runs, 0u) << label;
      EXPECT_EQ(oracle.counts.replays + oracle.counts.compiled_runs +
                    oracle.counts.segment_runs,
                0u)
          << label << ": oracle left the message path";
      if (::testing::Test::HasFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, RepeatOracle,
    ::testing::Values(ReplayCase{perf::Scheme::Megatron1D, 4, 0, 1},
                      ReplayCase{perf::Scheme::Optimus2D, 0, 2, 1},
                      ReplayCase{perf::Scheme::Tesseract, 0, 2, 2},
                      ReplayCase{perf::Scheme::Tesseract, 0, 4, 2}),
    [](const ::testing::TestParamInfo<ReplayCase>& info) {
      const ReplayCase& rc = info.param;
      switch (rc.scheme) {
        case perf::Scheme::Megatron1D:
          return "megatron" + std::to_string(rc.p);
        case perf::Scheme::Optimus2D:
          return "optimus" + std::to_string(rc.q) + "x" + std::to_string(rc.q);
        default:
          return "tesseract" + std::to_string(rc.q) + "x" +
                 std::to_string(rc.q) + "x" + std::to_string(rc.d);
      }
    });

// A body that cannot become a segment program runs as a plain loop, with
// the same clocks and CommStats as the message path.
void check_fallback(const std::function<void(Communicator&, int)>& body,
                    const std::string& label) {
  constexpr int n = 4;
  constexpr int times = 5;
  ScopedRunConfig cfg;
  for (const Backend& b : kBackends) {
    cfg->spmd_threads = b.threads;
    cfg->workers = b.workers;
    auto run_repeat = [&](bool oracle) {
      World world(n, spec_with_nodes_of(2));
      if (oracle) world.enable_metrics();
      world.clock(1).set_slowdown(1.75);
      world.run([&](Communicator& c) {
        int iteration = 0;
        c.repeat(times, [&] { body(c, iteration++); });
      });
      ReplayOutcome out;
      for (int r = 0; r < n; ++r) {
        out.after_fwd.push_back(world.clock(r).now());
        out.after_bwd.push_back(world.clock(r).now());
        out.stats.push_back(world.stats(r));
      }
      out.counts = world.rendezvous().counts();
      return out;
    };
    const std::string where = label + " [" + b.name + "]";
    const ReplayOutcome fast = run_repeat(false);
    expect_same_replay(fast, run_repeat(true), where);
    EXPECT_EQ(fast.counts.segment_runs, 0u) << where << ": no fallback";
    EXPECT_GT(fast.counts.compiled_runs, 0u) << where;
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(RepeatFallback, ChargesThatDependOnTheIteration) {
  check_fallback(
      [](Communicator& c, int iteration) {
        c.charge(1e-6 * (iteration + 1) * (c.rank() + 1));
        c.phantom_all_reduce(100000);
        c.charge(2e-6 * (c.rank() % 2 + 1));
        c.phantom_broadcast(0, 4096);
      },
      "iteration-dependent charges");
}

TEST(RepeatFallback, PointToPointMessages) {
  check_fallback(
      [](Communicator& c, int) {
        c.charge(1e-6 * (c.rank() + 1));
        c.phantom_all_reduce(100000);
        c.phantom_sendrecv((c.rank() + 1) % c.size(),
                           (c.rank() + c.size() - 1) % c.size(), 4096);
      },
      "phantom_sendrecv");
}

// Local work charged straight to the clock escapes the logs; the runner's
// check of the program against the second iteration catches it.
TEST(RepeatFallback, ClockChangesTheLogsMissed) {
  check_fallback(
      [](Communicator& c, int) {
        c.clock().advance(1e-6 * (c.rank() + 1));
        c.phantom_all_reduce(100000);
      },
      "unlogged advance");
}

// Skipped iterations leave each communicator's tag sequence where the
// second iteration left it, so a split after a segment program derives
// another id than after a plain loop. What follows the repeat (a split, its
// phantom collectives, a real all-reduce on the repeated communicator) must
// still give the plain loop's clocks, CommStats and PhantomCounts, and the
// message path's clocks and CommStats.
TEST(RepeatThenSplit, MatchesThePlainLoop) {
  constexpr int n = 4;
  constexpr int times = 6;
  enum class Mode { Repeat, Loop, Messages };
  ScopedRunConfig cfg;
  for (const Backend& b : kBackends) {
    cfg->spmd_threads = b.threads;
    cfg->workers = b.workers;
    auto run = [&](Mode mode) {
      World world(n, spec_with_nodes_of(2));
      if (mode == Mode::Messages) world.enable_metrics();
      world.clock(1).set_slowdown(1.75);
      std::vector<float> sums(static_cast<std::size_t>(n));
      world.run([&](Communicator& c) {
        Communicator pair = c.subgroup(c.rank() < 2 ? std::vector<int>{0, 1}
                                                    : std::vector<int>{2, 3});
        auto body = [&] {
          c.charge(1e-6 * (c.rank() + 1));
          c.phantom_all_reduce(100000);
          pair.phantom_broadcast(0, 4096);
        };
        if (mode == Mode::Repeat) {
          c.repeat(times, body);
        } else {
          for (int i = 0; i < times; ++i) body();
        }
        Communicator half = c.split(c.rank() % 2, c.rank());
        half.phantom_all_reduce(70000);
        half.phantom_all_gather(8192);
        pair.phantom_all_reduce(1000);
        std::vector<float> v(8, static_cast<float>(c.rank() + 1));
        c.all_reduce(v);
        sums[static_cast<std::size_t>(c.rank())] = v[7];
      });
      ReplayOutcome out;
      for (int r = 0; r < n; ++r) {
        out.after_fwd.push_back(world.clock(r).now());
        out.after_bwd.push_back(world.clock(r).now());
        out.stats.push_back(world.stats(r));
        EXPECT_EQ(sums[static_cast<std::size_t>(r)], 10.0f) << "rank " << r;
      }
      out.counts = world.rendezvous().counts();
      return out;
    };
    const std::string where = std::string(" [") + b.name + "]";
    const ReplayOutcome fast = run(Mode::Repeat);
    const ReplayOutcome loop = run(Mode::Loop);
    expect_same_replay(fast, loop, "repeat vs loop" + where);
    expect_same_replay(fast, run(Mode::Messages), "repeat vs messages" + where);
    EXPECT_EQ(fast.counts.segment_runs, static_cast<std::uint64_t>(times - 2))
        << where;
    EXPECT_EQ(loop.counts.segment_runs, 0u) << where;
    EXPECT_EQ(fast.counts.replays, loop.counts.replays) << where;
    EXPECT_EQ(fast.counts.compiles, loop.counts.compiles) << where;
    EXPECT_EQ(fast.counts.compiled_runs, loop.counts.compiled_runs) << where;
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace tsr::comm
