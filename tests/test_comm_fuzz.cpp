// Randomized consistency fuzzing of the collective implementations: for
// seeded random (group size, payload size, op sequence) draws, every
// collective's result is checked against a locally-computed reference. This
// catches interaction bugs (tag reuse, chunk arithmetic on ragged sizes,
// concurrent groups) that fixed-size unit tests can miss.
#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <string>
#include <tuple>

#include "comm/communicator.hpp"
#include "scoped_config.hpp"
#include "tensor/rng.hpp"

namespace tsr::comm {
namespace {

// Deterministic per-rank contribution so references are computable locally.
float contribution(int rank, std::int64_t i) {
  return static_cast<float>((rank + 1) * 100 + static_cast<int>(i % 97));
}

class CollectiveFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveFuzz, RandomSequences) {
  Rng rng(static_cast<std::uint64_t>(GetParam()), /*stream=*/0xF022);
  const int g = 1 + static_cast<int>(rng.next_below(8));
  const int ops = 12;

  // Pre-draw the op schedule so every rank agrees on it.
  struct Op {
    int kind;           // 0 bcast, 1 reduce, 2 allreduce, 3 allgather,
                        // 4 reduce_scatter, 5 barrier, 6 alltoall
    int root;
    std::int64_t count;
  };
  std::vector<Op> schedule;
  for (int i = 0; i < ops; ++i) {
    Op op;
    op.kind = static_cast<int>(rng.next_below(7));
    op.root = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(g)));
    op.count = 1 + static_cast<std::int64_t>(rng.next_below(50));
    schedule.push_back(op);
  }

  World world(g);
  world.run([&](Communicator& c) {
    for (std::size_t step = 0; step < schedule.size(); ++step) {
      const Op& op = schedule[step];
      const std::int64_t n = op.count;
      switch (op.kind) {
        case 0: {  // broadcast: everyone ends with the root's contribution
          std::vector<float> data(static_cast<std::size_t>(n));
          for (std::int64_t i = 0; i < n; ++i) {
            data[static_cast<std::size_t>(i)] = contribution(c.rank(), i);
          }
          c.broadcast(data, op.root);
          for (std::int64_t i = 0; i < n; ++i) {
            ASSERT_EQ(data[static_cast<std::size_t>(i)],
                      contribution(op.root, i))
                << "step " << step << " g=" << g << " n=" << n;
          }
          break;
        }
        case 1: {  // reduce to root
          std::vector<float> data(static_cast<std::size_t>(n));
          for (std::int64_t i = 0; i < n; ++i) {
            data[static_cast<std::size_t>(i)] = contribution(c.rank(), i);
          }
          c.reduce(data, op.root);
          if (c.rank() == op.root) {
            for (std::int64_t i = 0; i < n; ++i) {
              float want = 0.0f;
              for (int r = 0; r < g; ++r) want += contribution(r, i);
              ASSERT_EQ(data[static_cast<std::size_t>(i)], want)
                  << "step " << step;
            }
          }
          break;
        }
        case 2: {  // all_reduce
          std::vector<float> data(static_cast<std::size_t>(n));
          for (std::int64_t i = 0; i < n; ++i) {
            data[static_cast<std::size_t>(i)] = contribution(c.rank(), i);
          }
          c.all_reduce(data);
          for (std::int64_t i = 0; i < n; ++i) {
            float want = 0.0f;
            for (int r = 0; r < g; ++r) want += contribution(r, i);
            ASSERT_EQ(data[static_cast<std::size_t>(i)], want)
                << "step " << step << " g=" << g << " n=" << n;
          }
          break;
        }
        case 3: {  // all_gather
          std::vector<float> local(static_cast<std::size_t>(n));
          for (std::int64_t i = 0; i < n; ++i) {
            local[static_cast<std::size_t>(i)] = contribution(c.rank(), i);
          }
          std::vector<float> out(static_cast<std::size_t>(n * g));
          c.all_gather(local, out);
          for (int r = 0; r < g; ++r) {
            for (std::int64_t i = 0; i < n; ++i) {
              ASSERT_EQ(out[static_cast<std::size_t>(r * n + i)],
                        contribution(r, i))
                  << "step " << step;
            }
          }
          break;
        }
        case 4: {  // reduce_scatter: chunk r = sum over ranks of that chunk
          std::vector<float> data(static_cast<std::size_t>(n * g));
          for (std::int64_t i = 0; i < n * g; ++i) {
            data[static_cast<std::size_t>(i)] = contribution(c.rank(), i);
          }
          std::vector<float> out(static_cast<std::size_t>(n));
          c.reduce_scatter(data, out);
          for (std::int64_t i = 0; i < n; ++i) {
            float want = 0.0f;
            for (int r = 0; r < g; ++r) {
              want += contribution(r, c.rank() * n + i);
            }
            ASSERT_EQ(out[static_cast<std::size_t>(i)], want)
                << "step " << step;
          }
          break;
        }
        case 5:
          c.barrier();
          break;
        case 6: {  // all_to_all
          std::vector<float> in(static_cast<std::size_t>(n * g));
          for (int d = 0; d < g; ++d) {
            for (std::int64_t i = 0; i < n; ++i) {
              in[static_cast<std::size_t>(d * n + i)] =
                  contribution(c.rank(), d * 1000 + i);
            }
          }
          std::vector<float> out(static_cast<std::size_t>(n * g));
          c.all_to_all(in, out);
          for (int s = 0; s < g; ++s) {
            for (std::int64_t i = 0; i < n; ++i) {
              ASSERT_EQ(out[static_cast<std::size_t>(s * n + i)],
                        contribution(s, c.rank() * 1000 + i))
                  << "step " << step;
            }
          }
          break;
        }
        default:
          break;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectiveFuzz, ::testing::Range(0, 24));

// Concurrent subgroup stress: split the world into rows and columns and run
// interleaved random collectives on both; results must stay isolated.
class SubgroupFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SubgroupFuzz, RowAndColumnIsolation) {
  const int q = 3;
  World world(q * q);
  Rng seq_rng(static_cast<std::uint64_t>(GetParam()), 0xABCD);
  std::vector<int> kinds;
  for (int i = 0; i < 10; ++i) {
    kinds.push_back(static_cast<int>(seq_rng.next_below(2)));
  }
  world.run([&](Communicator& c) {
    const int i = c.rank() / q;
    const int j = c.rank() % q;
    std::vector<int> row_ranks, col_ranks;
    for (int t = 0; t < q; ++t) {
      row_ranks.push_back(i * q + t);
      col_ranks.push_back(t * q + j);
    }
    Communicator row = c.subgroup(row_ranks);
    Communicator col = c.subgroup(col_ranks);
    for (int k : kinds) {
      Communicator& target = k == 0 ? row : col;
      std::vector<float> v{static_cast<float>(c.rank())};
      target.all_reduce(v);
      float want = 0.0f;
      for (int t = 0; t < q; ++t) {
        want += static_cast<float>(k == 0 ? i * q + t : t * q + j);
      }
      ASSERT_EQ(v[0], want);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubgroupFuzz, ::testing::Range(0, 8));

// Random phantom schedules, simulated per collective on a plain World and
// message by message on a metered one (the oracle): every member's clock
// after every call must agree bit for bit, and the wire counters exactly.
// Draws cover ragged byte counts on both sides of the 64 KiB protocol
// switch, random roots, node sizes, stragglers, concurrent row/column
// subgroups and two communicators over the same ranks (a second handle on
// the row, and a split of the world). The drawn schedule runs three times
// with different local work before each call, so every key is replayed,
// compiled, and then run compiled from fresh entry clocks.
class PhantomFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PhantomFuzz, PerCollectiveMatchesMessageLevel) {
  Rng rng(static_cast<std::uint64_t>(GetParam()), /*stream=*/0xFA57);
  const int q = 2 + static_cast<int>(rng.next_below(3));  // 2..4
  const int n = q * q;
  const int per_node_choices[] = {1, 2, 4, 8};
  topo::MachineSpec spec = topo::MachineSpec::meluxina();
  spec.gpus_per_node = per_node_choices[rng.next_below(4)];
  struct Op {
    int kind;   // 0 bcast, 1 reduce, 2 all_reduce, 3 all_gather, 4 r_scatter
    int group;  // 0 world, 1 row, 2 column, 3 row again, 4 world split
    int root;
    std::int64_t bytes;
    double work;  // local seconds charged before the call
  };
  std::vector<Op> schedule;
  for (int i = 0; i < 40; ++i) {
    Op op;
    op.kind = static_cast<int>(rng.next_below(5));
    op.group = static_cast<int>(rng.next_below(5));
    op.root = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(q)));
    op.bytes = static_cast<std::int64_t>(
        rng.next_below(2) == 0 ? rng.next_below(70000)
                               : rng.next_below(1 << 20));
    op.work = 1e-6 * static_cast<double>(rng.next_below(20));
    schedule.push_back(op);
  }
  std::vector<double> slowdown(static_cast<std::size_t>(n), 1.0);
  slowdown[rng.next_below(static_cast<std::uint64_t>(n))] = 1.5;

  auto run = [&](bool oracle) {
    World world(n, spec);
    if (oracle) world.enable_metrics();  // forces the message path
    for (int r = 0; r < n; ++r) {
      world.clock(r).set_slowdown(slowdown[static_cast<std::size_t>(r)]);
    }
    std::vector<std::vector<double>> clocks(static_cast<std::size_t>(n));
    world.run([&](Communicator& c) {
      const int i = c.rank() / q;
      const int j = c.rank() % q;
      std::vector<int> row_ranks, col_ranks;
      for (int t = 0; t < q; ++t) {
        row_ranks.push_back(i * q + t);
        col_ranks.push_back(t * q + j);
      }
      Communicator groups[5] = {c, c.subgroup(row_ranks),
                                c.subgroup(col_ranks), c.subgroup(row_ranks),
                                c.split(0, c.rank())};
      for (int pass = 0; pass < 3; ++pass) {
        for (const Op& op : schedule) {
          Communicator& g = groups[op.group];
          c.clock().advance(op.work * (1 + (c.rank() + pass) % 3));
          const int root = op.root % g.size();
          switch (op.kind) {
            case 0: g.phantom_broadcast(root, op.bytes); break;
            case 1: g.phantom_reduce(root, op.bytes); break;
            case 2: g.phantom_all_reduce(op.bytes); break;
            case 3: g.phantom_all_gather(op.bytes); break;
            default: g.phantom_reduce_scatter(op.bytes); break;
          }
          clocks[static_cast<std::size_t>(c.rank())].push_back(c.clock().now());
        }
      }
    });
    std::vector<CommStats> stats;
    for (int r = 0; r < n; ++r) stats.push_back(world.stats(r));
    return std::make_tuple(clocks, stats, world.rendezvous().counts().replays,
                           world.rendezvous().counts().compiled_runs);
  };
  // Every scheduler backend: fibers on one and on four workers, threads.
  struct Backend {
    bool threads;
    int workers;
  };
  ScopedRunConfig cfg;
  for (const Backend b : {Backend{false, 1}, Backend{false, 4},
                          Backend{true, 1}}) {
    cfg->spmd_threads = b.threads;
    cfg->workers = b.workers;
    SCOPED_TRACE(b.threads ? "threads"
                           : "fibers W=" + std::to_string(b.workers));
    const auto [fast_clocks, fast_stats, fast_replays, fast_compiled] =
        run(false);
    const auto [ref_clocks, ref_stats, ref_replays, ref_compiled] = run(true);
    EXPECT_GT(fast_replays, 0u);
    EXPECT_GT(fast_compiled, 0u);
    EXPECT_EQ(ref_replays, 0u);
    EXPECT_EQ(ref_compiled, 0u);
    for (int r = 0; r < n; ++r) {
      const auto& a = fast_clocks[static_cast<std::size_t>(r)];
      const auto& b = ref_clocks[static_cast<std::size_t>(r)];
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a[k]),
                  std::bit_cast<std::uint64_t>(b[k]))
            << "rank " << r << " call " << k << " q=" << q
            << " gpus_per_node=" << spec.gpus_per_node;
      }
      const CommStats& sa = fast_stats[static_cast<std::size_t>(r)];
      const CommStats& sb = ref_stats[static_cast<std::size_t>(r)];
      EXPECT_EQ(sa.msgs_sent, sb.msgs_sent) << "rank " << r;
      EXPECT_EQ(sa.bytes_intra_node, sb.bytes_intra_node) << "rank " << r;
      EXPECT_EQ(sa.bytes_inter_node, sb.bytes_inter_node) << "rank " << r;
      EXPECT_EQ(sa.collective_calls(), sb.collective_calls()) << "rank " << r;
      EXPECT_EQ(sa.collective_bytes(), sb.collective_bytes()) << "rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhantomFuzz, ::testing::Range(0, 16));

TEST(MailboxState, NoPendingMessagesAfterCleanRun) {
  World world(6);
  world.run([&](Communicator& c) {
    std::vector<float> v(11, 1.0f);
    c.all_reduce(v);
    c.barrier();
    std::vector<float> out(static_cast<std::size_t>(11 * 6));
    c.all_gather(v, out);
    c.phantom_all_reduce(1 << 20);  // rendezvous wakes are consumed too
    c.phantom_broadcast(2, 100);
  });
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(world.mailbox(r).pending(), 0u) << "rank " << r;
  }
}

TEST(MailboxState, PoisonUnblocksDirectly) {
  Mailbox mb;
  std::thread t([&] {
    EXPECT_THROW((void)mb.pop(0, 1), std::runtime_error);
  });
  mb.poison("test poison");
  t.join();
}

}  // namespace
}  // namespace tsr::comm
