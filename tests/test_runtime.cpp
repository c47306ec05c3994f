// Virtual cluster runtime: barrier semantics, SPMD execution, exception
// propagation, simulated clocks, and the multi-worker fiber scheduler
// (worker-count determinism, cross-worker wakes, deadlock detection on both
// backends).
#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "comm/communicator.hpp"
#include "parallel/context.hpp"
#include "parallel/dist.hpp"
#include "parallel/tesseract_transformer.hpp"
#include "runtime/barrier.hpp"
#include "runtime/cluster.hpp"
#include "runtime/config.hpp"
#include "runtime/fiber.hpp"
#include "runtime/sim_clock.hpp"
#include "runtime/worker_pool.hpp"
#include "scoped_config.hpp"
#include "tensor/init.hpp"

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace tsr::rt {
namespace {

TEST(Barrier, RejectsNonPositiveCount) {
  EXPECT_THROW(Barrier(0), std::invalid_argument);
  EXPECT_THROW(Barrier(-3), std::invalid_argument);
}

TEST(Barrier, SingleThreadPassesThrough) {
  Barrier b(1);
  b.arrive_and_wait();
  b.arrive_and_wait();  // reusable
}

TEST(Barrier, SynchronizesPhases) {
  constexpr int kThreads = 8;
  constexpr int kPhases = 50;
  Barrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int p = 0; p < kPhases; ++p) {
        phase_counter.fetch_add(1);
        barrier.arrive_and_wait();
        // After the barrier, all kThreads arrivals of this phase happened.
        if (phase_counter.load() < kThreads * (p + 1)) ok = false;
        barrier.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(phase_counter.load(), kThreads * kPhases);
}

TEST(RunSpmd, RunsEveryRankExactlyOnce) {
  std::vector<std::atomic<int>> counts(16);
  run_spmd(16, [&](int r) { counts[static_cast<std::size_t>(r)]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(RunSpmd, SingleRankFastPath) {
  int called = 0;
  run_spmd(1, [&](int r) {
    EXPECT_EQ(r, 0);
    ++called;
  });
  EXPECT_EQ(called, 1);
}

TEST(RunSpmd, RejectsNonPositiveRanks) {
  EXPECT_THROW(run_spmd(0, [](int) {}), std::invalid_argument);
}

TEST(RunSpmd, PropagatesException) {
  EXPECT_THROW(
      run_spmd(4,
               [&](int r) {
                 if (r == 2) throw std::runtime_error("rank 2 boom");
               }),
      std::runtime_error);
}

TEST(RunSpmd, JoinsAllRanksEvenOnFailure) {
  std::atomic<int> finished{0};
  try {
    run_spmd(6, [&](int r) {
      if (r == 0) throw std::logic_error("early");
      finished.fetch_add(1);
    });
    FAIL() << "expected throw";
  } catch (const std::logic_error&) {
  }
  EXPECT_EQ(finished.load(), 5);
}

TEST(SimClock, AdvanceAccumulates) {
  SimClock c;
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  c.advance(1.5);
  c.advance(0.5);
  EXPECT_DOUBLE_EQ(c.now(), 2.0);
}

TEST(SimClock, NegativeAdvanceIgnored) {
  SimClock c;
  c.advance(1.0);
  c.advance(-5.0);
  EXPECT_DOUBLE_EQ(c.now(), 1.0);
}

TEST(SimClock, AdvanceToIsMonotone) {
  SimClock c;
  c.advance_to(3.0);
  EXPECT_DOUBLE_EQ(c.now(), 3.0);
  c.advance_to(1.0);  // message from the past does not rewind the clock
  EXPECT_DOUBLE_EQ(c.now(), 3.0);
}

TEST(SimClock, Reset) {
  SimClock c;
  c.advance(9.0);
  c.reset();
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  c.reset(2.0);
  EXPECT_DOUBLE_EQ(c.now(), 2.0);
}

// ---- multi-worker scheduler ----------------------------------------------

TEST(Scheduler, BackendSelection) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // Sanitizers cannot track fiber stack switches; the fiber backend must turn
  // itself off so run_spmd falls back to OS threads.
  EXPECT_FALSE(fibers_enabled());
#else
  {
    ScopedRunConfig cfg;
    cfg->spmd_threads = false;
    EXPECT_TRUE(fibers_enabled());
    cfg->spmd_threads = true;
    EXPECT_FALSE(fibers_enabled());
  }
#endif
}

RunConfig parse_env(const std::map<std::string, std::string>& env) {
  return parse_run_config(fake_env(env));
}

TEST(RunConfigParse, WorkersClampedToRange) {
  EXPECT_EQ(parse_env({{"TESSERACT_WORKERS", "3"}}).workers, 3);
  EXPECT_EQ(parse_env({{"TESSERACT_WORKERS", "999"}}).workers, 64);
  EXPECT_EQ(parse_env({{"TESSERACT_WORKERS", "1"}}).workers, 1);
  const int host = parse_env({}).workers;
  EXPECT_GE(host, 1);
  EXPECT_LE(host, 64);
  EXPECT_EQ(parse_env({{"TESSERACT_WORKERS", "0"}}).workers, host);
  EXPECT_THROW(parse_env({{"TESSERACT_WORKERS", "four"}}), std::runtime_error);
}

TEST(RunConfigParse, ExecutionFields) {
  const RunConfig unset = parse_env({});
  EXPECT_FALSE(unset.spmd_threads);
  EXPECT_TRUE(unset.kernel.empty());
  EXPECT_EQ(unset.fiber_stack_bytes, std::size_t{1} << 20);
  EXPECT_TRUE(unset.artifact_dir.empty());
  EXPECT_TRUE(unset.run_label.empty());
  const RunConfig set = parse_env({{"TESSERACT_SPMD", "threads"},
                                   {"TESSERACT_KERNEL", "avx2"},
                                   {"TESSERACT_FIBER_STACK_KB", "256"},
                                   {"TESSERACT_ARTIFACT_DIR", "out"},
                                   {"TESSERACT_RUN_LABEL", "ci"}});
  EXPECT_TRUE(set.spmd_threads);
  EXPECT_EQ(set.kernel, "avx2");
  EXPECT_EQ(set.fiber_stack_bytes, std::size_t{256} * 1024);
  EXPECT_EQ(set.artifact_dir, "out");
  EXPECT_EQ(set.run_label, "ci");
  // Below the 64 KiB floor the default stack stays.
  EXPECT_EQ(parse_env({{"TESSERACT_FIBER_STACK_KB", "8"}}).fiber_stack_bytes,
            std::size_t{1} << 20);
}

// Execution fields come from the shell on first use; result fields only
// through config_from_env(), which no test binary calls.
TEST(RunConfigParse, ExecutionParseIgnoresResultFields) {
  const std::map<std::string, std::string> env = {
      {"TESSERACT_WORKERS", "2"},
      {"TESSERACT_COMPRESS_DEPTH", "1"},
      {"TESSERACT_FAULT_SLOW_RANK", "0"},
      {"TESSERACT_PLAN_GPUS", "16"}};
  const RunConfig exec = parse_execution_config(fake_env(env));
  EXPECT_EQ(exec.workers, 2);
  EXPECT_FALSE(exec.compress_depth);
  EXPECT_TRUE(exec.fault.empty());
  EXPECT_EQ(exec.plan_gpus, 0);
  const RunConfig full = parse_env(env);
  EXPECT_TRUE(full.compress_depth);
  EXPECT_FALSE(full.fault.empty());
  EXPECT_EQ(full.plan_gpus, 16);
}

TEST(Scheduler, MultiWorkerRunsEveryRankExactlyOnce) {
  ScopedRunConfig cfg;
  for (const int w : {2, 4, 7}) {
    cfg->workers = w;
    std::vector<std::atomic<int>> counts(16);
    run_spmd(16, [&](int r) { counts[static_cast<std::size_t>(r)]++; });
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
  }
}

TEST(Scheduler, MultiWorkerPropagatesLowestRankError) {
  ScopedRunConfig cfg;
  cfg->workers = 4;
  EXPECT_THROW(
      run_spmd(8,
               [&](int r) {
                 if (r == 5) throw std::runtime_error("rank 5 boom");
               }),
      std::runtime_error);
}

// Many ring shifts across 8 ranks sharded over 4 workers: every shift wakes
// a receiver on a different worker thread, driving the atomic fiber-state
// handoff path hard. The payload rotation proves no message was lost or
// misrouted; the stats delta proves the cross-worker path actually ran.
TEST(Scheduler, CrossWorkerWakeStress) {
  ScopedRunConfig cfg;
  cfg->workers = 4;
  const int g = 8;
  const int rounds = 200;
  const SchedulerStats before = scheduler_stats();
  comm::World world(g);
  world.run([&](comm::Communicator& c) {
    std::vector<float> buf{static_cast<float>(c.rank())};
    std::vector<float> in(1);
    for (int i = 0; i < rounds; ++i) {
      const int dst = (c.rank() + 1) % g;
      const int src = (c.rank() + g - 1) % g;
      c.sendrecv(dst, buf, src, in, static_cast<std::uint64_t>(i));
      buf = in;
    }
    // After g*k full rotations the value returns home; 200 = 25 * 8.
    EXPECT_EQ(buf[0], static_cast<float>(c.rank()));
  });
  const SchedulerStats after = scheduler_stats();
  if (fibers_enabled()) {
    EXPECT_GT(after.resumes, before.resumes);
    EXPECT_GT(after.cross_wakes, before.cross_wakes);
  }
}

// All ranks receive from a sender that never sends: on the fiber backend the
// global quiescence check across workers must cancel the run and raise
// instead of hanging; under sanitizers (threads fallback) the watchdog set
// here catches the same cycle. Either way the test terminates with a throw.
TEST(Scheduler, DeadlockDetectedAcrossWorkers) {
  ScopedRunConfig cfg;
  cfg->workers = 2;
  cfg->deadlock_ms = 500;
  comm::World world(4);
  EXPECT_THROW(world.run([&](comm::Communicator& c) {
                 (void)c.recv((c.rank() + 1) % 4, 77);  // never sent
               }),
               std::runtime_error);
}

TEST(Watchdog, TimeoutParses) {
  EXPECT_EQ(parse_env({}).deadlock_ms, 0);  // off by default
  EXPECT_EQ(parse_env({{"TESSERACT_DEADLOCK_MS", "250"}}).deadlock_ms, 250);
  EXPECT_EQ(parse_env({{"TESSERACT_DEADLOCK_MS", "0"}}).deadlock_ms, 0);
  EXPECT_EQ(parse_env({{"TESSERACT_DEADLOCK_MS", "99999999"}}).deadlock_ms,
            3600000);
  EXPECT_THROW(parse_env({{"TESSERACT_DEADLOCK_MS", "1s"}}),
               std::runtime_error);
}

// Threads backend under the watchdog: a true all-ranks-blocked cycle throws
// a diagnosis naming every blocked rank instead of hanging CI forever.
TEST(Watchdog, ThreadsBackendDeadlockThrows) {
  ScopedRunConfig cfg;
  cfg->spmd_threads = true;
  cfg->deadlock_ms = 300;
  comm::World world(3);
  try {
    world.run([&](comm::Communicator& c) {
      (void)c.recv((c.rank() + 1) % 3, 99);  // never sent
    });
    FAIL() << "expected deadlock throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    const bool watchdog_report =
        what.find("deadlock watchdog") != std::string::npos;
    const bool poison_unwind =
        what.find("Mailbox poisoned") != std::string::npos;
    EXPECT_TRUE(watchdog_report || poison_unwind) << what;
    if (watchdog_report) {
      EXPECT_NE(what.find("blocked in recv"), std::string::npos) << what;
    }
  }
}

// A healthy run under a tight watchdog must NOT trip it: epochs advance on
// every completed pop, so progress resets the verdict window.
TEST(Watchdog, NoFalsePositiveOnProgress) {
  ScopedRunConfig cfg;
  cfg->spmd_threads = true;
  cfg->deadlock_ms = 200;
  comm::World world(4);
  world.run([&](comm::Communicator& c) {
    std::vector<float> v{1.0f};
    for (int i = 0; i < 50; ++i) c.all_reduce(v);
    EXPECT_EQ(v[0], static_cast<float>(std::pow(4.0, 50)));
  });
}

// One full Tesseract [2,2,2] training step (forward + backward through a
// transformer layer on 8 ranks). Returns the float bits of the collected
// output and input gradient from rank 0.
struct StepResult {
  std::vector<float> y;
  std::vector<float> dx;
};

StepResult tesseract_step() {
  const std::int64_t b = 4, s = 2, h = 16, heads = 4;
  Rng data_rng(7);
  Tensor x = random_normal({b, s, h}, data_rng);
  Tensor dy = random_normal({b, s, h}, data_rng);
  StepResult out;
  comm::World world(8);
  world.run([&](comm::Communicator& c) {
    par::TesseractContext ctx(c, 2, 2);
    Rng wrng(42);
    par::TesseractTransformerLayer layer(ctx, h, heads, wrng);
    Tensor yl = layer.forward(par::distribute_activation(ctx.comms(), x));
    Tensor y = par::collect_activation(ctx.comms(), yl, b, s, h);
    layer.zero_grad();
    Tensor dxl = layer.backward(par::distribute_activation(ctx.comms(), dy));
    Tensor dx = par::collect_activation(ctx.comms(), dxl, b, s, h);
    if (c.rank() == 0) {
      out.y.assign(y.data(), y.data() + y.numel());
      out.dx.assign(dx.data(), dx.data() + dx.numel());
    }
  });
  return out;
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The SPMD determinism contract: scheduling is an implementation detail, so
// the same step must produce byte-identical tensors for every worker count
// and for the OS-thread backend.
TEST(Determinism, TesseractStepInvariantAcrossWorkersAndBackends) {
  ScopedRunConfig cfg;
  cfg->spmd_threads = false;
  cfg->workers = 1;
  const StepResult base = tesseract_step();
  ASSERT_FALSE(base.y.empty());
  ASSERT_FALSE(base.dx.empty());
  for (const int w : {2, 4}) {
    cfg->workers = w;
    const StepResult r = tesseract_step();
    EXPECT_TRUE(bits_equal(r.y, base.y)) << "y differs at W=" << w;
    EXPECT_TRUE(bits_equal(r.dx, base.dx)) << "dx differs at W=" << w;
  }
  cfg->spmd_threads = true;
  for (const int w : {1, 4}) {
    cfg->workers = w;
    const StepResult r = tesseract_step();
    EXPECT_TRUE(bits_equal(r.y, base.y)) << "y differs on threads W=" << w;
    EXPECT_TRUE(bits_equal(r.dx, base.dx)) << "dx differs on threads W=" << w;
  }
}

// Nested worlds (a rank opening an inner cluster) must stay on the worker
// thread of the outer fiber and still complete under multi-worker sharding.
TEST(Scheduler, NestedWorldInsideFiber) {
  ScopedRunConfig cfg;
  cfg->workers = 4;
  std::atomic<int> inner_total{0};
  run_spmd(4, [&](int) {
    run_spmd(2, [&](int) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 8);
}

// ---- phantom rendezvous failure paths ----------------------------------------
// Members of a per-collective phantom call park on their own mailbox until
// the last member replays it, so the mailbox's failure handling must reach
// them there exactly as it reaches a blocked receive.

struct BackendCase {
  bool threads;  // RunConfig::spmd_threads; false = fibers
  int workers;
};
constexpr BackendCase kAllBackends[] = {{false, 1}, {false, 4}, {true, 4}};

void select_backend(ScopedRunConfig& cfg, const BackendCase& b) {
  cfg->spmd_threads = b.threads;
  cfg->workers = b.workers;
}

std::string run_error(comm::World& world,
                      const std::function<void(comm::Communicator&)>& fn) {
  try {
    world.run(fn);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(PhantomRendezvous, ThrowingRankUnwindsParkedPeers) {
  ScopedRunConfig cfg;
  cfg->deadlock_ms = 20000;
  for (const BackendCase& b : kAllBackends) {
    select_backend(cfg, b);
    comm::World world(6, topo::MachineSpec::meluxina());
    const std::string err = run_error(world, [&](comm::Communicator& c) {
      c.phantom_all_reduce(1 << 20);  // one clean meeting first
      if (c.rank() == 4) throw std::runtime_error("rank 4 boom");
      c.phantom_all_reduce(1 << 20);
    });
    EXPECT_NE(err.find("rank 4 boom"), std::string::npos)
        << "workers=" << b.workers << ": " << err;
    EXPECT_EQ(world.rendezvous().counts().replays, 1u);
  }
}

TEST(PhantomRendezvous, SkippedCollectiveIsReportedAsDeadlock) {
  ScopedRunConfig cfg;
  cfg->deadlock_ms = 300;  // threads backend: the watchdog reports the cycle
  for (const BackendCase& b : kAllBackends) {
    select_backend(cfg, b);
    comm::World world(4, topo::MachineSpec::meluxina());
    const std::string err = run_error(world, [&](comm::Communicator& c) {
      if (c.rank() != 3) c.phantom_broadcast(0, 4096);  // rank 3 skips it
    });
    EXPECT_NE(err.find("deadlock"), std::string::npos)
        << "workers=" << b.workers << ": " << err;
  }
}

// ---- fiber switch -------------------------------------------------------------

// Unwinds through `depth` frames that each suspended the fiber once.
int throw_after_switches(comm::Communicator& c, int depth, int round) {
  const int g = c.size();
  std::vector<float> out{static_cast<float>(c.rank())};
  std::vector<float> in(1);
  c.sendrecv((c.rank() + 1) % g, out, (c.rank() + g - 1) % g, in,
             static_cast<std::uint64_t>(round * 16 + depth));
  if (depth == 0) throw std::out_of_range("rank " + std::to_string(c.rank()));
  return throw_after_switches(c, depth - 1, round) + 1;
}

TEST(FiberSwitch, ExceptionCaughtInsideFiberAcrossSwitches) {
  ScopedRunConfig cfg;
  for (const int w : {1, 4}) {
    cfg->workers = w;
    comm::World world(8);
    std::vector<int> caught(8, 0);
    world.run([&](comm::Communicator& c) {
      for (int round = 0; round < 3; ++round) {
        try {
          (void)throw_after_switches(c, 5, round);
        } catch (const std::out_of_range& e) {
          EXPECT_EQ(std::string(e.what()), "rank " + std::to_string(c.rank()));
          ++caught[static_cast<std::size_t>(c.rank())];
        }
        c.barrier();  // more switches after the handler completed
      }
    });
    for (int n : caught) EXPECT_EQ(n, 3) << "W=" << w;
  }
}

#if defined(__x86_64__)
// Rounding modes live in MXCSR and the x87 control word, which belong to the
// thread of control: the switch saves and restores both per fiber.
TEST(FiberSwitch, RoundingModeDoesNotLeakAcrossFibers) {
  ScopedRunConfig cfg;
  cfg->workers = 1;  // both fibers on one worker thread
  const unsigned default_rc = _mm_getcsr() & 0x6000u;
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  comm::World world(2);
  world.run([&](comm::Communicator& c) {
    std::vector<float> token{1.0f};
    if (c.rank() == 0) {
      std::fesetround(FE_UPWARD);
      const unsigned upward_rc = _mm_getcsr() & 0x6000u;
      EXPECT_NE(upward_rc, default_rc);
      (void)c.recv(1, 1);  // suspends; rank 1 runs on this thread
      EXPECT_EQ(std::fegetround(), FE_UPWARD);
      EXPECT_EQ(_mm_getcsr() & 0x6000u, upward_rc);
      c.send(1, 2, token);
      (void)c.recv(1, 3);
      EXPECT_EQ(_mm_getcsr() & 0x6000u, upward_rc);
      std::fesetround(FE_TONEAREST);
    } else {
      EXPECT_EQ(std::fegetround(), FE_TONEAREST);
      EXPECT_EQ(_mm_getcsr() & 0x6000u, default_rc);
      c.send(0, 1, token);
      (void)c.recv(0, 2);
      EXPECT_EQ(std::fegetround(), FE_TONEAREST);
      EXPECT_EQ(_mm_getcsr() & 0x6000u, default_rc);
      c.send(0, 3, token);
    }
  });
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(_mm_getcsr() & 0x6000u, default_rc);
}
#endif

TEST(WorkerPool, ParallelForRunsEveryTaskOnce) {
  std::vector<std::atomic<int>> counts(64);
  WorkerPool::instance().parallel_for(
      64, 4, [&](int t) { counts[static_cast<std::size_t>(t)]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(WorkerPool, ParallelForPropagatesError) {
  EXPECT_THROW(WorkerPool::instance().parallel_for(
                   16, 4,
                   [&](int t) {
                     if (t == 9) throw std::runtime_error("task 9 boom");
                   }),
               std::runtime_error);
}

}  // namespace
}  // namespace tsr::rt
