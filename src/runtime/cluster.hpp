// Virtual SPMD cluster: runs one function on N ranks.
//
// This substitutes for the paper's GPU cluster (see DESIGN.md §1). Each rank
// executes the same function with its rank id — the SPMD model of MPI/NCCL —
// and communicates only through the comm::Communicator handed to it.
// Exceptions thrown by any rank are captured, the cluster is drained, and
// the first exception is rethrown to the caller.
//
// Two backends exist (selection in runtime/fiber.hpp): cooperative fibers
// sharded over RunConfig::workers worker threads by default, and one OS
// thread per rank under sanitizers or RunConfig::spmd_threads. The fiber
// backend detects cluster deadlocks natively (global quiescence check); the
// thread backend gains the same property through the watchdog below.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>

namespace tsr::rt {

/// Runs `fn(rank)` on `nranks` virtual ranks and joins them all.
///
/// If one or more ranks throw, every rank is still joined (communicators
/// must not be destroyed under a live rank) and the lowest-rank exception is
/// rethrown.
void run_spmd(int nranks, const std::function<void(int)>& fn);

// ---- Thread-backend deadlock watchdog --------------------------------------
// A cluster deadlock under the thread backend used to hang the process (and
// CI) forever; the fiber backend detects and reports it. The watchdog closes
// the gap: when RunConfig::deadlock_ms > 0 (TESSERACT_DEADLOCK_MS),
// run_spmd's thread backend spawns a monitor that observes each rank's
// blocked state (published by Mailbox::pop through the BlockedSlot of the
// calling rank thread). If every live rank stays blocked in a receive with
// no mailbox progress for the configured window, the watchdog cancels all
// waits and the ranks throw an error carrying a per-rank blocked-state
// dump. Off by default in normal builds (no false positives possible, but
// also no overhead unless asked); tests enable it through their environment
// so a deadlock fails fast.

/// Blocked-state mailbox rank threads publish for the watchdog. All fields
/// are atomics written by the owning rank thread and read by the monitor.
struct BlockedSlot {
  std::atomic<bool> blocked{false};
  std::atomic<bool> done{false};
  std::atomic<int> src{0};             ///< world rank waited on (valid when blocked)
  std::atomic<std::uint64_t> tag{0};   ///< message tag waited on
  std::atomic<std::uint64_t> epoch{0}; ///< bumped on every block/unblock
  std::atomic<bool> cancel{false};     ///< set by the watchdog: abort the wait
  /// Per-rank dump the watchdog prepared; valid once cancel is true (the
  /// string outlives the rank threads — it lives in run_spmd's frame).
  std::atomic<const std::string*> report{nullptr};
  int rank = 0;

  void begin_wait(int s, std::uint64_t t) {
    src.store(s, std::memory_order_relaxed);
    tag.store(t, std::memory_order_relaxed);
    epoch.fetch_add(1, std::memory_order_relaxed);
    blocked.store(true);
  }
  void end_wait() {
    blocked.store(false);
    epoch.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Slot of the calling rank thread under a watched thread-backend run, or
/// nullptr (fiber backend, unwatched runs, threads outside run_spmd).
BlockedSlot* current_blocked_slot();

/// Rank the calling thread (or fiber) is executing inside run_spmd, or -1
/// outside any SPMD region. Works on both backends: the fiber scheduler
/// publishes the rank of the fiber driving the current worker thread, the
/// thread backend publishes a thread-local around fn(r). The metrics
/// registry uses this to shard recordings per rank so rollup reductions can
/// run in fixed rank order (bit-identical across backends and worker
/// counts).
int current_spmd_rank();

}  // namespace tsr::rt
