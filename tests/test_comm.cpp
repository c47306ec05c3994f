// Communicator: point-to-point, every collective against its mathematical
// definition across a sweep of group sizes, group construction (split /
// subgroup), statistics accounting, and failure handling.
#include <gtest/gtest.h>

#include <numeric>

#include "comm/communicator.hpp"

namespace tsr::comm {
namespace {

// ---- point-to-point ---------------------------------------------------------

TEST(PointToPoint, SendRecvDeliversPayload) {
  World world(2);
  world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, /*tag=*/7, std::vector<float>{1, 2, 3});
    } else {
      Payload got = c.recv(0, 7);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_EQ(got[2], 3.0f);
    }
  });
}

TEST(PointToPoint, TagsKeepMessagesApart) {
  World world(2);
  world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, 1, std::vector<float>{10});
      c.send(1, 2, std::vector<float>{20});
    } else {
      // Receive in the opposite order of sending: tags must disambiguate.
      EXPECT_EQ(c.recv(0, 2)[0], 20.0f);
      EXPECT_EQ(c.recv(0, 1)[0], 10.0f);
    }
  });
}

TEST(PointToPoint, FifoPerSenderAndTag) {
  World world(2);
  world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        c.send(1, 5, std::vector<float>{static_cast<float>(i)});
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(c.recv(0, 5)[0], static_cast<float>(i));
      }
    }
  });
}

TEST(PointToPoint, SendrecvExchanges) {
  World world(3);
  world.run([&](Communicator& c) {
    std::vector<float> send{static_cast<float>(c.rank())};
    std::vector<float> recv(1);
    const int right = (c.rank() + 1) % 3;
    const int left = (c.rank() + 2) % 3;
    c.sendrecv(right, send, left, recv, /*tag=*/3);
    EXPECT_EQ(recv[0], static_cast<float>(left));
  });
}

// ---- collectives over a sweep of group sizes ----------------------------------

class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, Barrier) {
  World world(GetParam());
  world.run([&](Communicator& c) {
    for (int i = 0; i < 3; ++i) c.barrier();
  });
}

TEST_P(CollectiveSweep, BroadcastFromEveryRoot) {
  const int g = GetParam();
  World world(g);
  for (int root = 0; root < g; ++root) {
    world.run([&](Communicator& c) {
      std::vector<float> data(5, c.rank() == root ? 42.0f : -1.0f);
      c.broadcast(data, root);
      for (float v : data) EXPECT_EQ(v, 42.0f) << "g=" << g << " root=" << root;
    });
  }
}

TEST_P(CollectiveSweep, ReduceSumToEveryRoot) {
  const int g = GetParam();
  World world(g);
  const float expect = static_cast<float>(g * (g - 1) / 2);
  for (int root = 0; root < g; ++root) {
    world.run([&](Communicator& c) {
      std::vector<float> data(3, static_cast<float>(c.rank()));
      c.reduce(data, root);
      if (c.rank() == root) {
        for (float v : data) EXPECT_EQ(v, expect);
      }
    });
  }
}

TEST_P(CollectiveSweep, ReduceMax) {
  const int g = GetParam();
  World world(g);
  world.run([&](Communicator& c) {
    std::vector<float> data{static_cast<float>(c.rank() * 10)};
    c.reduce(data, 0, ReduceOp::Max);
    if (c.rank() == 0) {
      EXPECT_EQ(data[0], static_cast<float>((g - 1) * 10));
    }
  });
}

TEST_P(CollectiveSweep, AllReduceSum) {
  const int g = GetParam();
  World world(g);
  const float expect = static_cast<float>(g * (g - 1) / 2);
  world.run([&](Communicator& c) {
    // Size chosen to exercise uneven ring chunks (not divisible by g).
    std::vector<float> data(7, static_cast<float>(c.rank()));
    c.all_reduce(data);
    for (float v : data) EXPECT_EQ(v, expect);
  });
}

TEST_P(CollectiveSweep, AllReduceMax) {
  const int g = GetParam();
  World world(g);
  world.run([&](Communicator& c) {
    std::vector<float> data(4, static_cast<float>(-c.rank()));
    c.all_reduce(data, ReduceOp::Max);
    for (float v : data) EXPECT_EQ(v, 0.0f);
  });
}

TEST_P(CollectiveSweep, AllReduceTinyBuffer) {
  const int g = GetParam();
  World world(g);
  world.run([&](Communicator& c) {
    std::vector<float> data{1.0f};  // count < group size
    c.all_reduce(data);
    EXPECT_EQ(data[0], static_cast<float>(g));
  });
}

TEST_P(CollectiveSweep, AllGather) {
  const int g = GetParam();
  World world(g);
  world.run([&](Communicator& c) {
    std::vector<float> local{static_cast<float>(c.rank()),
                             static_cast<float>(c.rank() + 100)};
    std::vector<float> out(static_cast<std::size_t>(2 * g));
    c.all_gather(local, out);
    for (int r = 0; r < g; ++r) {
      EXPECT_EQ(out[static_cast<std::size_t>(2 * r)], static_cast<float>(r));
      EXPECT_EQ(out[static_cast<std::size_t>(2 * r + 1)],
                static_cast<float>(r + 100));
    }
  });
}

TEST_P(CollectiveSweep, ReduceScatter) {
  const int g = GetParam();
  World world(g);
  world.run([&](Communicator& c) {
    // data[r*2 + j] = r + rank; reduced chunk r = sum over ranks.
    std::vector<float> data(static_cast<std::size_t>(2 * g));
    for (int r = 0; r < g; ++r) {
      data[static_cast<std::size_t>(2 * r)] =
          static_cast<float>(r + c.rank());
      data[static_cast<std::size_t>(2 * r + 1)] = 1.0f;
    }
    std::vector<float> out(2);
    c.reduce_scatter(data, out);
    const float expect0 =
        static_cast<float>(g * c.rank() + g * (g - 1) / 2);
    EXPECT_EQ(out[0], expect0);
    EXPECT_EQ(out[1], static_cast<float>(g));
  });
}

TEST_P(CollectiveSweep, GatherToEveryRoot) {
  const int g = GetParam();
  World world(g);
  for (int root = 0; root < g; ++root) {
    world.run([&](Communicator& c) {
      std::vector<float> local{static_cast<float>(c.rank())};
      std::vector<float> out(static_cast<std::size_t>(g), -1.0f);
      c.gather(local, c.rank() == root ? std::span<float>(out)
                                       : std::span<float>(out.data(), 0),
               root);
      if (c.rank() == root) {
        for (int r = 0; r < g; ++r) {
          EXPECT_EQ(out[static_cast<std::size_t>(r)], static_cast<float>(r));
        }
      }
    });
  }
}

TEST_P(CollectiveSweep, Scatter) {
  const int g = GetParam();
  World world(g);
  world.run([&](Communicator& c) {
    std::vector<float> in;
    if (c.rank() == 0) {
      in.resize(static_cast<std::size_t>(g));
      std::iota(in.begin(), in.end(), 0.0f);
    }
    std::vector<float> local(1, -1.0f);
    c.scatter(in, local, 0);
    EXPECT_EQ(local[0], static_cast<float>(c.rank()));
  });
}

TEST_P(CollectiveSweep, AllToAll) {
  const int g = GetParam();
  World world(g);
  world.run([&](Communicator& c) {
    // in chunk for destination d carries value rank*100 + d.
    std::vector<float> in(static_cast<std::size_t>(g));
    for (int d = 0; d < g; ++d) {
      in[static_cast<std::size_t>(d)] = static_cast<float>(c.rank() * 100 + d);
    }
    std::vector<float> out(static_cast<std::size_t>(g), -1.0f);
    c.all_to_all(in, out);
    for (int s = 0; s < g; ++s) {
      EXPECT_EQ(out[static_cast<std::size_t>(s)],
                static_cast<float>(s * 100 + c.rank()));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16));

// ---- group construction -------------------------------------------------------

TEST(Split, EvenOddGroups) {
  World world(6);
  world.run([&](Communicator& c) {
    Communicator sub = c.split(c.rank() % 2, c.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), c.rank() / 2);
    // All-reduce within the color group only.
    std::vector<float> v{1.0f};
    sub.all_reduce(v);
    EXPECT_EQ(v[0], 3.0f);
  });
}

TEST(Split, KeyControlsOrdering) {
  World world(4);
  world.run([&](Communicator& c) {
    // Reverse order via descending keys.
    Communicator sub = c.split(0, -c.rank());
    EXPECT_EQ(sub.rank(), c.size() - 1 - c.rank());
  });
}

TEST(Subgroup, RowGroupsOfA2x2Grid) {
  World world(4);
  world.run([&](Communicator& c) {
    const int i = c.rank() / 2;
    Communicator row = c.subgroup({2 * i, 2 * i + 1});
    EXPECT_EQ(row.size(), 2);
    std::vector<float> v{static_cast<float>(c.rank())};
    row.all_reduce(v);
    EXPECT_EQ(v[0], static_cast<float>(4 * i + 1));  // (2i) + (2i+1)
  });
}

TEST(Subgroup, CallerMustBeMember) {
  World world(2);
  EXPECT_THROW(world.run([&](Communicator& c) {
                 if (c.rank() == 0) (void)c.subgroup({1});
                 // rank 1 takes no action; rank 0 throws locally before any
                 // communication happens.
               }),
               std::invalid_argument);
}

TEST(Subgroup, ConcurrentRowAndColumnCollectives) {
  // 2x2 grid: rows {0,1},{2,3}, columns {0,2},{1,3}; run collectives on both
  // interleaved to check tag isolation between communicators.
  World world(4);
  world.run([&](Communicator& c) {
    const int i = c.rank() / 2;
    const int j = c.rank() % 2;
    Communicator row = c.subgroup({2 * i, 2 * i + 1});
    Communicator col = c.subgroup({j, j + 2});
    std::vector<float> a{static_cast<float>(c.rank())};
    std::vector<float> b{static_cast<float>(c.rank())};
    row.all_reduce(a);
    col.all_reduce(b);
    EXPECT_EQ(a[0], static_cast<float>(4 * i + 1));
    EXPECT_EQ(b[0], static_cast<float>(2 * j + 2));  // j + (j+2)
  });
}

// ---- statistics ---------------------------------------------------------------

TEST(Stats, BroadcastBytesAccounted) {
  World world(4);
  world.run([&](Communicator& c) {
    std::vector<float> data(10, 1.0f);
    c.broadcast(data, 0);
  });
  CommStats total = world.total_stats();
  // Binomial tree over 4 ranks sends exactly 3 messages of 40 bytes.
  EXPECT_EQ(total.msgs_sent, 3);
  EXPECT_EQ(total.bytes_sent, 3 * 40);
  EXPECT_EQ(total.collectives.at("broadcast").calls, 4);  // one call per rank
  EXPECT_EQ(total.collectives.at("broadcast").bytes, 4 * 40);
}

TEST(Stats, RingAllReduceWireBytes) {
  const int g = 4;
  World world(g);
  world.run([&](Communicator& c) {
    std::vector<float> data(8, 1.0f);  // divisible chunks: 2 floats each
    c.all_reduce(data);
  });
  CommStats total = world.total_stats();
  // Ring: 2(g-1) steps, each rank sends one 2-float chunk per step.
  EXPECT_EQ(total.msgs_sent, g * 2 * (g - 1));
  EXPECT_EQ(total.bytes_sent, g * 2 * (g - 1) * 8);
}

TEST(Stats, ResetClearsCounters) {
  World world(2);
  world.run([&](Communicator& c) {
    std::vector<float> v(4, 0.0f);
    c.all_reduce(v);
  });
  EXPECT_GT(world.total_stats().msgs_sent, 0);
  world.reset_stats();
  EXPECT_EQ(world.total_stats().msgs_sent, 0);
}

TEST(Stats, MergeAndToString) {
  CommStats a;
  a.record_msg(100, false);
  a.record_collective(CollectiveKind::Broadcast, 100);
  CommStats b;
  b.record_msg(50, true);
  b.record_collective(CollectiveKind::Broadcast, 50);
  b.record_collective(CollectiveKind::Reduce, 10);
  a.merge(b);
  EXPECT_EQ(a.msgs_sent, 2);
  EXPECT_EQ(a.bytes_sent, 150);
  EXPECT_EQ(a.bytes_intra_node, 100);
  EXPECT_EQ(a.bytes_inter_node, 50);
  EXPECT_EQ(a.collective_calls(), 3);
  EXPECT_EQ(a.collective_bytes(), 160);
  EXPECT_NE(a.to_string().find("broadcast"), std::string::npos);
  // A counted merge is that many single merges.
  CommStats thrice = a;
  thrice.merge(b, 3);
  for (int i = 0; i < 3; ++i) a.merge(b);
  EXPECT_EQ(thrice.msgs_sent, a.msgs_sent);
  EXPECT_EQ(thrice.bytes_intra_node, a.bytes_intra_node);
  EXPECT_EQ(thrice.bytes_inter_node, a.bytes_inter_node);
  EXPECT_EQ(thrice.to_string(), a.to_string());
}

// ---- failure handling -----------------------------------------------------------

TEST(Failure, RankExceptionUnblocksPeers) {
  World world(4);
  try {
    world.run([&](Communicator& c) {
      if (c.rank() == 3) throw std::invalid_argument("injected failure");
      // Peers block in a collective that can never complete.
      std::vector<float> v(4, 0.0f);
      c.all_reduce(v);
      c.all_reduce(v);
    });
    FAIL() << "expected exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "injected failure");
  }
}

TEST(Failure, ShapeErrorsSurfaceOriginalMessage) {
  World world(2);
  try {
    world.run([&](Communicator& c) {
      std::vector<float> local(3);
      std::vector<float> out(5);  // wrong: must be 2 * 3
      c.all_gather(local, out);
    });
    FAIL() << "expected exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("all_gather"), std::string::npos);
  }
}

}  // namespace
}  // namespace tsr::comm
