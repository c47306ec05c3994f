// Persistent host worker pool shared by the multi-core runtime.
//
// Two consumers drive it:
//   * rt::FiberScheduler parks one long-lived "worker loop" per scheduler
//     worker on a dedicated pool thread (run_exclusive), so paper-scale
//     replays spread their rank fibers over the host cores without paying a
//     thread spawn per World::run;
//   * the packed GEMM in tensor/gemm.cpp fans its disjoint C-panel tasks out
//     with parallel_for, where the caller always participates and idle pool
//     threads opportunistically help.
//
// The pool grows on demand (never shrinks) up to the worker counts callers
// request, so RunConfig::workers = 4 behaves identically on a 1-core and a
// 64-core host — only the wall-clock differs, never the results.
#pragma once

#include <functional>

namespace tsr::rt {

namespace detail {
/// Share of the host this thread may use for nested data parallelism:
/// RunConfig::workers / scheduler workers while driving rank fibers,
/// 0 (= "use the full budget") elsewhere. Managed by the fiber scheduler.
extern thread_local int t_host_share;
}  // namespace detail

/// How many workers a GEMM issued from the calling thread may use without
/// oversubscribing the host: the full configured worker count from serial
/// code, the per-scheduler-worker share from inside a rank fiber.
int gemm_parallelism();

class WorkerPool {
 public:
  /// The process-wide pool. Threads are created lazily on first use.
  static WorkerPool& instance();

  /// Runs fn(0..n-1) to completion, fn(0) on the calling thread and each of
  /// fn(1..n-1) on a dedicated pool thread (the pool grows so that every
  /// concurrently outstanding exclusive task has a thread — required by the
  /// fiber scheduler, whose worker loops block on each other's progress).
  /// Rethrows the first exception after all n calls returned.
  void run_exclusive(int n, const std::function<void(int)>& fn);

  /// Runs fn(0..ntasks-1) with dynamic task claiming. The caller always
  /// participates, so completion never depends on pool threads being free;
  /// at most max_workers threads (caller included) claim tasks, which is how
  /// a GEMM inside a fiber keeps to its share of the host. Rethrows the
  /// first task exception after every task completed.
  void parallel_for(int ntasks, int max_workers,
                    const std::function<void(int)>& fn);

  /// Current pool thread count (grows on demand; for tests and telemetry).
  int threads() const;

 private:
  WorkerPool();
  ~WorkerPool();
  struct Impl;
  Impl* impl_;
};

}  // namespace tsr::rt
