#include "runtime/cluster.hpp"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/config.hpp"
#include "runtime/fiber.hpp"

namespace tsr::rt {

namespace {

thread_local BlockedSlot* t_blocked_slot = nullptr;
thread_local int t_thread_rank = -1;  // thread backend + single-rank fast path

// Watchdog state of one watched thread-backend run. Lives in run_spmd's
// frame; rank threads and the monitor thread only hold pointers into it and
// are joined before it dies.
struct SpmdWatch {
  std::vector<BlockedSlot> slots;
  std::string report;  // written by the monitor before any cancel is set
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;  // guarded by mu; run_spmd sets it after joining ranks

  explicit SpmdWatch(int nranks) : slots(static_cast<std::size_t>(nranks)) {
    for (int r = 0; r < nranks; ++r) slots[static_cast<std::size_t>(r)].rank = r;
  }
};

// The monitor: samples every rank's blocked state. A deadlock verdict needs
// every unfinished rank blocked with an unchanged epoch across the whole
// timeout window — any pop that completes (or new block) bumps an epoch and
// resets the clock, so a slow host can never trip a false positive.
void watchdog_main(SpmdWatch* watch, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const auto poll = std::chrono::milliseconds(
      timeout_ms >= 200 ? 50 : (timeout_ms >= 20 ? timeout_ms / 4 : 5));
  std::vector<std::uint64_t> epochs(watch->slots.size(), 0);
  bool armed = false;
  Clock::time_point quiet_since{};
  for (;;) {
    {
      std::unique_lock lock(watch->mu);
      if (watch->cv.wait_for(lock, poll, [&] { return watch->stop; })) return;
    }
    bool all_done = true;
    bool all_blocked = true;
    bool moved = false;
    for (std::size_t i = 0; i < watch->slots.size(); ++i) {
      const BlockedSlot& s = watch->slots[i];
      if (s.done.load()) continue;
      all_done = false;
      const std::uint64_t e = s.epoch.load(std::memory_order_relaxed);
      if (!s.blocked.load() || (armed && e != epochs[i])) all_blocked = false;
      if (e != epochs[i]) moved = true;
      epochs[i] = e;
    }
    if (all_done) return;
    if (!all_blocked || moved || !armed) {
      armed = all_blocked && !moved;
      quiet_since = Clock::now();
      continue;
    }
    if (Clock::now() - quiet_since < std::chrono::milliseconds(timeout_ms)) {
      continue;
    }
    // Verdict: every live rank sat in the same receive for the full window
    // with zero mailbox progress anywhere. Dump and cancel.
    std::ostringstream os;
    os << "SPMD deadlock watchdog: every rank blocked in a receive with no "
          "progress for "
       << timeout_ms << " ms:";
    for (const BlockedSlot& s : watch->slots) {
      if (s.done.load()) continue;
      os << "\n  rank " << s.rank << ": blocked in recv(src="
         << s.src.load(std::memory_order_relaxed)
         << ", tag=" << s.tag.load(std::memory_order_relaxed) << ")";
    }
    watch->report = os.str();
    for (BlockedSlot& s : watch->slots) {
      s.report.store(&watch->report);
      s.cancel.store(true);
    }
    return;
  }
}

}  // namespace

BlockedSlot* current_blocked_slot() { return t_blocked_slot; }

int current_spmd_rank() {
  if (FiberScheduler* s = current_scheduler()) {
    const int r = s->current_rank();
    if (r >= 0) return r;
  }
  return t_thread_rank;
}

void run_spmd(int nranks, const std::function<void(int)>& fn) {
  if (nranks <= 0) {
    throw std::invalid_argument("run_spmd: nranks must be positive");
  }
  if (nranks == 1) {
    const int prev_rank = t_thread_rank;
    t_thread_rank = 0;  // fast path, also keeps single-rank stacks debuggable
    try {
      fn(0);
    } catch (...) {
      t_thread_rank = prev_rank;
      throw;
    }
    t_thread_rank = prev_rank;
    return;
  }
  if (fibers_enabled()) {
    // Cooperative backend: rank fibers sharded over RunConfig::workers
    // worker threads. Blocking and exception contracts match the thread
    // backend, deadlocks are detected natively; see runtime/fiber.hpp.
    FiberScheduler::run(nranks, fn);
    return;
  }
  const int watchdog_ms = run_config().deadlock_ms;
  std::unique_ptr<SpmdWatch> watch;
  std::thread watchdog;
  if (watchdog_ms > 0) {
    watch = std::make_unique<SpmdWatch>(nranks);
    watchdog = std::thread(watchdog_main, watch.get(), watchdog_ms);
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      BlockedSlot* slot =
          watch ? &watch->slots[static_cast<std::size_t>(r)] : nullptr;
      t_blocked_slot = slot;
      t_thread_rank = r;
      try {
        fn(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
      t_thread_rank = -1;
      t_blocked_slot = nullptr;
      if (slot != nullptr) slot->done.store(true);
    });
  }
  for (std::thread& t : threads) t.join();
  if (watchdog.joinable()) {
    {
      std::lock_guard lock(watch->mu);
      watch->stop = true;
    }
    watch->cv.notify_all();
    watchdog.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace tsr::rt
