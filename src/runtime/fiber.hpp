// Work-sharing fiber scheduler for the virtual SPMD cluster.
//
// The simulated cluster is synchronization-bound, not compute-bound: a rank
// spends most of its life blocked in Mailbox::pop waiting for a peer. With
// one OS thread per rank (runtime/cluster.cpp) every such block is a futex
// syscall plus a kernel context switch — on a small host that dominates the
// real wall-clock of the paper-scale phantom replays. This scheduler runs
// the ranks of one cluster as fibers spread over W worker threads
// (W = RunConfig::workers, default: the hardware concurrency, clamped to the
// rank count). Ranks are sharded statically and contiguously onto workers —
// rank r always runs on worker r * W / nranks — so ring neighbours usually
// share a worker, a fiber never migrates between OS threads, and each
// worker drives its own shard with a deterministic round-robin. A rank that
// would block yields in user space — a register-only stack switch with no
// syscall (fiber.cpp) — to the next runnable rank of its shard; a
// Mailbox::push wakes the waiting rank through a lock-free fiber state
// machine, unparking the target's worker only when it is actually parked
// (no syscall on the common same-worker path).
//
// Semantics are identical to the thread backend for code that follows the
// SPMD contract (ranks interact only through mailboxes): the simulated
// clocks, statistics and numerics do not depend on the interleaving, so the
// output is byte-identical for every W from 1 to the core count. Two
// differences from raw threads are deliberate improvements:
//   * a cluster-wide deadlock (every live rank blocked, no message in
//     flight) is detected by a global quiescence check across workers and
//     reported as an error instead of hanging the process;
//   * per-worker execution is deterministic round-robin, which makes
//     failures reproducible.
//
// The backend is selected in rt::run_spmd: fibers by default, OS threads
// when RunConfig::spmd_threads is set (TESSERACT_SPMD=threads), when a
// sanitizer that tracks stacks is active (ASan/TSan need fiber-switch
// annotations the switch does not provide), on any architecture but x86-64
// (the switch is x86-64 SysV assembly), and in a process running with CET
// shadow stacks (the switch's cross-stack `ret` would fault).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace tsr::rt {

class FiberScheduler;

/// Scheduler whose worker loop is driving the CURRENT thread, or nullptr
/// when the caller runs on a plain OS thread. Mailbox::pop uses this to pick
/// its blocking strategy.
FiberScheduler* current_scheduler();

/// True when run_spmd will use the fiber backend for multi-rank clusters:
/// x86-64, no stack-tracking sanitizer, no shadow stack, and
/// RunConfig::spmd_threads unset. Evaluated per call (not cached) so tests
/// can flip it.
bool fibers_enabled();

/// Handle a blocked fiber leaves with its wait object so the waker can
/// reschedule it. Embedded in Mailbox; opaque outside the runtime.
struct FiberWaiter {
  FiberScheduler* sched = nullptr;
  int rank = -1;

  bool armed() const { return sched != nullptr; }
  void clear() { sched = nullptr; rank = -1; }
};

/// Cumulative process-wide scheduler telemetry (all runs, all schedulers).
/// Benches and World::run metrics read deltas around a region of interest.
struct SchedulerStats {
  std::uint64_t runs = 0;         ///< FiberScheduler::run invocations
  std::uint64_t resumes = 0;      ///< fiber resume context switches
  std::uint64_t local_wakes = 0;  ///< wakes landing on the waker's worker
  std::uint64_t cross_wakes = 0;  ///< wakes crossing a worker boundary
  std::uint64_t parks = 0;        ///< times a worker slept for lack of work
  std::uint64_t deadlocks = 0;    ///< quiescence cancellations reported
  /// Per-worker-id resume counts (utilization profile across the pool).
  std::vector<std::uint64_t> worker_resumes;
};

SchedulerStats scheduler_stats();

class FiberScheduler {
 public:
  /// Runs fn(0..nranks-1) cooperatively on min(RunConfig::workers, nranks)
  /// workers until every rank finished. Nested runs (from inside a fiber)
  /// stay single-worker on the calling thread. Exceptions thrown by ranks
  /// are captured; the lowest rank's exception is rethrown after all ranks
  /// completed or died, the same contract as the thread backend.
  static void run(int nranks, const std::function<void(int)>& fn);

  /// Called from inside a fiber: suspends until wake() for this rank.
  /// Returns normally on wake; the caller must re-check its wait condition
  /// (wakeups may be spurious — a wake can race the suspension, and the
  /// all-blocked cancellation below wakes every waiter).
  void block_current();

  /// Marks `rank` runnable and unparks its worker if needed. Callable from
  /// any thread: another fiber of this scheduler on any worker (the mailbox
  /// push path), or an outside thread (poison). Waking a rank that is
  /// running or already runnable is a no-op recorded as a pending wake, so
  /// a push racing the receiver's suspension is never lost.
  void wake(int rank);

  /// Set when every live rank was blocked with nobody left to wake them:
  /// the cluster deadlocked. All waiters are woken and should abort their
  /// wait by throwing when they observe this flag.
  bool cancelled() const;

  /// Rank of the fiber running on the calling thread, -1 outside a fiber.
  int current_rank() const;

 private:
  FiberScheduler() = default;
  struct Impl;
  Impl* impl_ = nullptr;
};

}  // namespace tsr::rt
