// Fault-injection subsystem (src/fault/): plan parsing, null-plan
// byte-identity, deterministic kill / straggler / slow-link / delay
// behavior across both SPMD backends and worker counts, and composition with
// the threads-backend deadlock watchdog.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "runtime/config.hpp"
#include "scoped_config.hpp"
#include "topology/machine_spec.hpp"

namespace tsr::fault {
namespace {

// The backend/worker matrix the fault semantics must be invariant across.
// workers 0 keeps the configured count.
struct Backend {
  const char* label;
  bool threads;  // RunConfig::spmd_threads
  int workers;
};

const Backend kMatrix[] = {
    {"fibers-w1", false, 1},
    {"fibers-w4", false, 4},
    {"threads", true, 0},
};

void apply_backend(const Backend& b, ScopedRunConfig& cfg) {
  cfg->spmd_threads = b.threads;
  if (b.workers > 0) cfg->workers = b.workers;
}

constexpr int kRanks = 8;  // the [2,2,2] Tesseract grid

// Deterministic collective workload: every rank contributes a seeded vector,
// the cluster all-reduces it repeatedly with a sendrecv ring shift between
// iterations (so there is always a pending receive for a kill to strand).
struct RunResult {
  std::vector<std::vector<float>> data;  // per-rank final payload
  double makespan = 0.0;
  comm::CommStats stats;
};

RunResult run_workload(comm::World& world, int iters = 6, int n = 96) {
  RunResult out;
  out.data.assign(static_cast<std::size_t>(world.size()), {});
  world.run([&](comm::Communicator& c) {
    std::vector<float> v(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      v[static_cast<std::size_t>(i)] =
          0.25f * static_cast<float>((c.rank() * 31 + i) % 17) - 1.0f;
    }
    std::vector<float> shifted(v.size());
    for (int it = 0; it < iters; ++it) {
      c.all_reduce(v);
      const int dst = (c.rank() + 1) % c.size();
      const int src = (c.rank() + c.size() - 1) % c.size();
      c.sendrecv(dst, v, src, shifted, /*tag=*/static_cast<std::uint64_t>(it));
      v.swap(shifted);
    }
    out.data[static_cast<std::size_t>(c.rank())] = v;
  });
  out.makespan = world.max_sim_time();
  out.stats = world.total_stats();
  return out;
}

bool bitwise_equal(const std::vector<std::vector<float>>& a,
                   const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    if (!a[r].empty() &&
        std::memcmp(a[r].data(), b[r].data(), a[r].size() * sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Plan parsing
// ---------------------------------------------------------------------------

TEST(FaultPlan, EmptyByDefault) {
  FaultPlan p;
  EXPECT_TRUE(p.empty());
  p.recv_timeout_ms = 100;
  EXPECT_FALSE(p.empty());
}

TEST(FaultPlan, JsonRoundTrip) {
  FaultPlan p;
  p.seed = 42;
  p.recv_timeout_ms = 1500;
  p.kills.push_back(KillSpec{3, 20, -1.0});
  p.kills.push_back(KillSpec{-1, -1, 0.125});
  p.delays.push_back(DelaySpec{0, 1, 1e-4, 5e-5, 0.5, 10});
  p.slow_ranks.push_back(SlowRankSpec{0, 2.5});
  p.slow_links.push_back(SlowLinkSpec{0, 1, 1.5, 3.0});

  std::string err;
  const FaultPlan q = FaultPlan::from_json_text(p.to_json().dump(), &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(q.seed, 42u);
  EXPECT_EQ(q.recv_timeout_ms, 1500);
  ASSERT_EQ(q.kills.size(), 2u);
  EXPECT_EQ(q.kills[0].rank, 3);
  EXPECT_EQ(q.kills[0].at_op, 20);
  EXPECT_DOUBLE_EQ(q.kills[1].at_time, 0.125);
  ASSERT_EQ(q.delays.size(), 1u);
  EXPECT_DOUBLE_EQ(q.delays[0].jitter, 5e-5);
  EXPECT_EQ(q.delays[0].count, 10);
  ASSERT_EQ(q.slow_ranks.size(), 1u);
  EXPECT_DOUBLE_EQ(q.slow_ranks[0].scale, 2.5);
  ASSERT_EQ(q.slow_links.size(), 1u);
  EXPECT_DOUBLE_EQ(q.slow_links[0].beta_scale, 3.0);
}

TEST(FaultPlan, MalformedJsonReportsError) {
  // A wrong-typed member, then unknown keys: a misspelt top-level list, a
  // misspelt field inside a spec, and a fault kind the schema no longer has.
  // Each must fail loudly (naming the key) rather than run a healthy plan.
  const std::pair<const char*, const char*> cases[] = {
      {"{\"kills\": 7}", "kills"},
      {"{\"slow_rank\": [{\"rank\": 0, \"scale\": 2.0}]}", "'slow_rank'"},
      {"{\"slow_ranks\": [{\"rank\": 0, \"scal\": 2.0}]}", "'scal'"},
      {"{\"drops\": [{\"src\": 0, \"dst\": 1}]}", "'drops'"},
  };
  for (const auto& [text, key] : cases) {
    std::string err;
    const FaultPlan p = FaultPlan::from_json_text(text, &err);
    EXPECT_NE(err.find(key), std::string::npos) << text << " -> " << err;
    EXPECT_TRUE(p.empty()) << text;
  }
}

// The plan a bench or tool main reads, parsed from a fake environment.
FaultPlan plan_from(const std::map<std::string, std::string>& env) {
  return parse_run_config(fake_env(env)).fault;
}

TEST(FaultPlan, EnvScalarsBuildPlan) {
  EXPECT_TRUE(plan_from({}).empty());
  const FaultPlan p = plan_from({{"TESSERACT_FAULT_SEED", "9"},
                                 {"TESSERACT_FAULT_KILL_RANK", "2"},
                                 {"TESSERACT_FAULT_KILL_AT_OP", "15"},
                                 {"TESSERACT_FAULT_SLOW_RANK", "0"},
                                 {"TESSERACT_FAULT_SLOW_SCALE", "3.0"},
                                 {"TESSERACT_FAULT_SLOW_LINK", "1:-1"}});
  EXPECT_EQ(p.seed, 9u);
  ASSERT_EQ(p.kills.size(), 1u);
  EXPECT_EQ(p.kills[0].rank, 2);
  EXPECT_EQ(p.kills[0].at_op, 15);
  ASSERT_EQ(p.slow_ranks.size(), 1u);
  EXPECT_DOUBLE_EQ(p.slow_ranks[0].scale, 3.0);
  ASSERT_EQ(p.slow_links.size(), 1u);
  EXPECT_EQ(p.slow_links[0].src, 1);
  EXPECT_EQ(p.slow_links[0].dst, -1);
  EXPECT_DOUBLE_EQ(p.slow_links[0].beta_scale, 2.0);
  // A kill with no trigger dies at its first operation.
  EXPECT_EQ(plan_from({{"TESSERACT_FAULT_KILL_RANK", "1"}}).kills[0].at_op, 0);
}

TEST(FaultPlan, EnvInlineJsonWins) {
  // TESSERACT_FAULT_KILL_RANK must be ignored: the plan takes precedence.
  const FaultPlan p = plan_from(
      {{"TESSERACT_FAULT_KILL_RANK", "5"},
       {"TESSERACT_FAULT_PLAN",
        "{\"seed\": 77, \"slow_ranks\": [{\"rank\": 1, \"scale\": 2.0}]}"}});
  EXPECT_EQ(p.seed, 77u);
  EXPECT_TRUE(p.kills.empty());
  ASSERT_EQ(p.slow_ranks.size(), 1u);
  EXPECT_EQ(p.slow_ranks[0].rank, 1);
}

TEST(FaultPlan, EnvMalformedValuesThrow) {
  EXPECT_THROW(plan_from({{"TESSERACT_FAULT_PLAN", "{not json"}}),
               std::runtime_error);
  EXPECT_THROW(plan_from({{"TESSERACT_FAULT_KILL_RANK", "two"}}),
               std::runtime_error);
  EXPECT_THROW(plan_from({{"TESSERACT_FAULT_SLOW_RANK", "0"},
                          {"TESSERACT_FAULT_SLOW_SCALE", "2x"}}),
               std::runtime_error);
  EXPECT_THROW(plan_from({{"TESSERACT_FAULT_SLOW_LINK", "1-2"}}),
               std::runtime_error);
  EXPECT_THROW(
      plan_from({{"TESSERACT_FAULT_PLAN",
                  "{\"slow_ranks\": [{\"rank\": 0, \"scal\": 2.0}]}"}}),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Null-plan byte-identity
// ---------------------------------------------------------------------------

// The acceptance bar for the whole subsystem: a World with no plan, a World
// with an explicitly installed empty plan, and a World with a "neutral" plan
// (slowdown 1.0) must produce byte-identical payloads, identical byte
// counters and identical simulated clocks, on every backend.
TEST(FaultNull, EmptyPlanIsByteIdentical) {
  ScopedRunConfig cfg;
  cfg->spmd_threads = false;
  cfg->workers = 1;
  comm::World base_world(kRanks, topo::MachineSpec::meluxina());
  const RunResult base = run_workload(base_world);

  for (const Backend& b : kMatrix) {
    apply_backend(b, cfg);

    comm::World no_plan(kRanks, topo::MachineSpec::meluxina());
    EXPECT_EQ(no_plan.fault_injector(), nullptr);
    const RunResult r0 = run_workload(no_plan);

    comm::World empty_plan(kRanks, topo::MachineSpec::meluxina());
    empty_plan.install_fault_plan(FaultPlan{});
    EXPECT_EQ(empty_plan.fault_injector(), nullptr) << b.label;
    const RunResult r1 = run_workload(empty_plan);

    // Neutral plan: the injector and all its hooks run, but every knob is at
    // its identity value (scale 1.0 multiplies exactly in IEEE).
    FaultPlan neutral;
    neutral.slow_ranks.push_back(SlowRankSpec{-1, 1.0});
    comm::World neutral_plan(kRanks, topo::MachineSpec::meluxina());
    neutral_plan.install_fault_plan(neutral);
    ASSERT_NE(neutral_plan.fault_injector(), nullptr) << b.label;
    const RunResult r2 = run_workload(neutral_plan);

    for (const RunResult* r : {&r0, &r1, &r2}) {
      EXPECT_TRUE(bitwise_equal(base.data, r->data)) << b.label;
      EXPECT_EQ(base.stats.msgs_sent, r->stats.msgs_sent) << b.label;
      EXPECT_EQ(base.stats.bytes_sent, r->stats.bytes_sent) << b.label;
      EXPECT_EQ(base.stats.bytes_inter_node, r->stats.bytes_inter_node)
          << b.label;
      EXPECT_DOUBLE_EQ(base.makespan, r->makespan) << b.label;
    }
  }
}

// ---------------------------------------------------------------------------
// Rank kills
// ---------------------------------------------------------------------------

// Kill rank 3 mid-run on every backend/worker combination: World::run must
// surface PeerFailure (never hang, never trip the watchdog), every survivor
// must observe the same failed-rank set, and the injector's report must be
// identical across the whole matrix.
TEST(FaultKill, SurvivorsAgreeOnFailedSetAcrossBackends) {
  ScopedRunConfig cfg;

  FaultPlan plan;
  plan.kills.push_back(KillSpec{3, 40, -1.0});

  for (const Backend& b : kMatrix) {
    apply_backend(b, cfg);
    comm::World world(kRanks, topo::MachineSpec::meluxina());
    world.install_fault_plan(plan);

    std::vector<std::vector<int>> seen(kRanks);
    bool threw = false;
    try {
      world.run([&](comm::Communicator& c) {
        std::vector<float> v(64, 1.0f);
        try {
          for (int it = 0; it < 50; ++it) c.all_reduce(v);
        } catch (const PeerFailure& e) {
          seen[static_cast<std::size_t>(c.rank())] = e.failed_ranks();
          throw;
        }
      });
    } catch (const PeerFailure& e) {
      threw = true;
      EXPECT_EQ(e.failed_ranks(), std::vector<int>{3}) << b.label;
    }
    EXPECT_TRUE(threw) << b.label;

    // Every survivor that observed the failure saw the identical set; the
    // victim (rank 3) observed nothing — it is the failure.
    EXPECT_TRUE(seen[3].empty()) << b.label;
    int observers = 0;
    for (int r = 0; r < kRanks; ++r) {
      if (r == 3) continue;
      if (!seen[static_cast<std::size_t>(r)].empty()) {
        ++observers;
        EXPECT_EQ(seen[static_cast<std::size_t>(r)], std::vector<int>{3})
            << b.label << " rank " << r;
      }
    }
    EXPECT_EQ(observers, kRanks - 1) << b.label;

    ASSERT_NE(world.fault_injector(), nullptr);
    const FaultReport rep = world.fault_injector()->report();
    EXPECT_EQ(rep.kills, 1);
    EXPECT_EQ(rep.dead_ranks, std::vector<int>{3}) << b.label;
  }
}

// Injected kill + tight deadlock watchdog (threads backend): the structured
// PeerFailure must win; the watchdog's blocked-rank dump must never fire.
TEST(FaultKill, ComposesWithThreadsWatchdog) {
  ScopedRunConfig cfg;
  cfg->spmd_threads = true;
  cfg->deadlock_ms = 400;

  FaultPlan plan;
  plan.kills.push_back(KillSpec{1, 10, -1.0});
  comm::World world(4, topo::MachineSpec::meluxina());
  world.install_fault_plan(plan);

  try {
    world.run([&](comm::Communicator& c) {
      std::vector<float> v(32, 2.0f);
      for (int it = 0; it < 50; ++it) c.all_reduce(v);
    });
    FAIL() << "expected PeerFailure";
  } catch (const PeerFailure& e) {
    EXPECT_EQ(e.failed_ranks(), std::vector<int>{1});
  } catch (const std::runtime_error& e) {
    FAIL() << "watchdog dump instead of PeerFailure: " << e.what();
  }
}

// Time-triggered kill: fires when the victim's simulated clock passes the
// threshold, and the trigger is deterministic (same sim schedule every run).
TEST(FaultKill, SimTimeTriggerIsDeterministic) {
  auto run_once = [&](const Backend& b) {
    ScopedRunConfig cfg;
    apply_backend(b, cfg);
    FaultPlan plan;
    plan.kills.push_back(KillSpec{5, -1, 1e-4});
    comm::World world(kRanks, topo::MachineSpec::meluxina());
    world.install_fault_plan(plan);
    try {
      world.run([&](comm::Communicator& c) {
        std::vector<float> v(256, 1.0f);
        for (int it = 0; it < 100; ++it) c.all_reduce(v);
      });
    } catch (const PeerFailure&) {
    }
    return world.fault_injector()->report();
  };

  const FaultReport base = run_once(kMatrix[0]);
  EXPECT_EQ(base.kills, 1);
  EXPECT_EQ(base.dead_ranks, std::vector<int>{5});
  for (const Backend& b : kMatrix) {
    const FaultReport rep = run_once(b);
    EXPECT_EQ(rep.kills, base.kills) << b.label;
    EXPECT_EQ(rep.dead_ranks, base.dead_ranks) << b.label;
  }
}

// ---------------------------------------------------------------------------
// Stragglers and degraded links
// ---------------------------------------------------------------------------

TEST(FaultStraggler, SlowRankInflatesMakespanDeterministically) {
  ScopedRunConfig cfg;
  cfg->spmd_threads = false;
  cfg->workers = 1;
  comm::World base_world(kRanks, topo::MachineSpec::meluxina());
  const RunResult base = run_workload(base_world);

  FaultPlan plan;
  plan.slow_ranks.push_back(SlowRankSpec{0, 2.0});

  double first = -1.0;
  for (const Backend& b : kMatrix) {
    apply_backend(b, cfg);
    comm::World world(kRanks, topo::MachineSpec::meluxina());
    world.install_fault_plan(plan);
    const RunResult r = run_workload(world);
    // Straggling never corrupts data, only time.
    EXPECT_TRUE(bitwise_equal(base.data, r.data)) << b.label;
    EXPECT_EQ(base.stats.bytes_sent, r.stats.bytes_sent) << b.label;
    EXPECT_GT(r.makespan, base.makespan) << b.label;
    if (first < 0) {
      first = r.makespan;
    } else {
      EXPECT_DOUBLE_EQ(first, r.makespan) << b.label;
    }
  }
}

TEST(FaultStraggler, SlowLinkInflatesMakespan) {
  ScopedRunConfig cfg;
  cfg->spmd_threads = false;
  cfg->workers = 1;
  comm::World base_world(kRanks, topo::MachineSpec::meluxina());
  const RunResult base = run_workload(base_world);

  FaultPlan plan;
  plan.slow_links.push_back(SlowLinkSpec{0, -1, 1.0, 4.0});
  comm::World world(kRanks, topo::MachineSpec::meluxina());
  world.install_fault_plan(plan);
  const RunResult r = run_workload(world);
  EXPECT_TRUE(bitwise_equal(base.data, r.data));
  EXPECT_GT(r.makespan, base.makespan);
}

// ---------------------------------------------------------------------------
// Message faults: seeded delay
// ---------------------------------------------------------------------------

TEST(FaultMessage, SeededDelayIsReproducible) {
  ScopedRunConfig cfg;
  cfg->spmd_threads = false;
  cfg->workers = 1;

  FaultPlan plan;
  plan.seed = 1234;
  plan.delays.push_back(DelaySpec{-1, -1, 1e-5, 2e-5, 0.5, -1});

  auto run_once = [&]() {
    comm::World world(kRanks, topo::MachineSpec::meluxina());
    world.install_fault_plan(plan);
    RunResult r = run_workload(world);
    const FaultReport rep = world.fault_injector()->report();
    return std::make_pair(r, rep);
  };
  const auto [r1, rep1] = run_once();
  const auto [r2, rep2] = run_once();

  EXPECT_GT(rep1.delayed_msgs, 0);
  EXPECT_GT(rep1.injected_delay_seconds, 0.0);
  EXPECT_EQ(rep1.delayed_msgs, rep2.delayed_msgs);
  EXPECT_DOUBLE_EQ(rep1.injected_delay_seconds, rep2.injected_delay_seconds);
  EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
  EXPECT_TRUE(bitwise_equal(r1.data, r2.data));

  // Same plan, different seed: a different subset of messages is hit.
  FaultPlan other = plan;
  other.seed = 99;
  comm::World world(kRanks, topo::MachineSpec::meluxina());
  world.install_fault_plan(other);
  run_workload(world);
  const FaultReport rep3 = world.fault_injector()->report();
  // The jitter draws are continuous, so seed changes always show up in the
  // accumulated delay even if the hit count happens to coincide.
  EXPECT_NE(rep1.injected_delay_seconds, rep3.injected_delay_seconds);

  // Delayed messages are still each received exactly once: no queue holds
  // a leftover message at the end of the run, on any backend.
  for (const Backend& b : kMatrix) {
    apply_backend(b, cfg);
    comm::World w(kRanks, topo::MachineSpec::meluxina());
    w.install_fault_plan(plan);
    run_workload(w);
    for (int r = 0; r < kRanks; ++r) {
      EXPECT_EQ(w.mailbox(r).pending(), 0u) << b.label << " rank " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Receive timeouts (threads backend: timed waits need a real clock)
// ---------------------------------------------------------------------------

TEST(FaultTimeout, BlockedRecvTimesOutOnThreadsBackend) {
  ScopedRunConfig cfg;
  cfg->spmd_threads = true;
  cfg->deadlock_ms = 30000;  // far beyond the timeout: RecvTimeout must win

  FaultPlan plan;
  plan.recv_timeout_ms = 200;
  comm::World world(2);
  world.install_fault_plan(plan);
  try {
    world.run([&](comm::Communicator& c) {
      if (c.rank() == 1) {
        c.recv(0, /*tag=*/7);  // rank 0 never sends
      }
    });
    FAIL() << "expected RecvTimeout";
  } catch (const RecvTimeout& e) {
    EXPECT_EQ(e.src(), 0);
  }
}

// Regression: install_fault_plan must reset the mailbox receive timeouts on
// EVERY install — including an empty plan. Before the fix, installing a new
// plan with recv_timeout_ms == 0 (or clearing faults between back-to-back
// runs on one World) leaked the previous plan's timeout into later runs.
TEST(FaultTimeout, ReinstallResetsMailboxRecvTimeouts) {
  comm::World world(3);

  FaultPlan timed;
  timed.recv_timeout_ms = 750;
  world.install_fault_plan(timed);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(world.mailbox(r).recv_timeout_ms(), 750) << r;
  }

  // A non-empty follow-up plan with no timeout must clear it, not keep 750.
  FaultPlan slow;
  slow.slow_ranks.push_back({/*rank=*/1, /*scale=*/2.0});
  world.install_fault_plan(slow);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(world.mailbox(r).recv_timeout_ms(), 0) << r;
  }

  world.install_fault_plan(timed);
  // An EMPTY plan (the "clear faults" idiom) must also reset the timeout,
  // even though it installs nothing else.
  world.install_fault_plan(FaultPlan{});
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(world.mailbox(r).recv_timeout_ms(), 0) << r;
  }
}

// Regression: a non-empty plan replaces the previous plan's stragglers, not
// only the slowdowns of the ranks it lists. An empty plan leaves them.
TEST(FaultSlowdown, ReinstallResetsEarlierSlowdowns) {
  comm::World world(3);

  FaultPlan first;
  first.slow_ranks.push_back({/*rank=*/1, /*scale=*/2.0});
  world.install_fault_plan(first);
  EXPECT_DOUBLE_EQ(world.clock(1).slowdown(), 2.0);

  FaultPlan second;
  second.slow_ranks.push_back({/*rank=*/0, /*scale=*/3.0});
  world.install_fault_plan(second);
  EXPECT_DOUBLE_EQ(world.clock(0).slowdown(), 3.0);
  EXPECT_DOUBLE_EQ(world.clock(1).slowdown(), 1.0);
  EXPECT_DOUBLE_EQ(world.clock(2).slowdown(), 1.0);

  world.install_fault_plan(FaultPlan{});
  EXPECT_DOUBLE_EQ(world.clock(0).slowdown(), 3.0);
  EXPECT_DOUBLE_EQ(world.clock(1).slowdown(), 1.0);
}

// Config-driven install: a World constructed while RunConfig::fault holds a
// plan (a bench main that read TESSERACT_FAULT_*) picks it up with no code
// change.
TEST(FaultEnv, WorldConstructorInstallsConfiguredPlan) {
  ScopedRunConfig cfg;
  cfg->fault = plan_from({{"TESSERACT_FAULT_SLOW_RANK", "0"},
                          {"TESSERACT_FAULT_SLOW_SCALE", "4.0"}});
  comm::World world(2, topo::MachineSpec::meluxina());
  ASSERT_NE(world.fault_injector(), nullptr);
  EXPECT_DOUBLE_EQ(world.clock(0).slowdown(), 4.0);
  EXPECT_DOUBLE_EQ(world.clock(1).slowdown(), 1.0);
}

}  // namespace
}  // namespace tsr::fault
