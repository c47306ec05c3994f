#include "runtime/fiber.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "runtime/config.hpp"
#include "runtime/worker_pool.hpp"

// ---- Context switch ---------------------------------------------------------
// A suspended fiber is nothing but its stack pointer. tsr_fiber_switch pushes
// the callee-saved state of the x86-64 SysV ABI — rbp, rbx, r12-r15, and the
// MXCSR and x87 control words (rounding modes are per thread of control) —
// onto the current stack, stores rsp to *from, loads `to`, and pops the same
// frame off the other stack. Everything else is caller-saved, so the compiler
// has already spilled it around the call. Fibers never touch the signal
// mask, so unlike glibc swapcontext a switch makes no syscall.
#if defined(__x86_64__)
extern "C" __attribute__((visibility("hidden"))) void tsr_fiber_switch(
    void** from, void* to);
asm(R"(
  .text
  .p2align 4
  .globl tsr_fiber_switch
  .hidden tsr_fiber_switch
  .type tsr_fiber_switch, @function
tsr_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size tsr_fiber_switch, .-tsr_fiber_switch
)");
#endif

namespace tsr::rt {
namespace {

#if defined(__x86_64__)
constexpr bool kSwitchAvailable = true;

// Lays out a fresh stack so the first switch into it "returns" into
// `entry`: the frame tsr_fiber_switch pops (control words copied from the
// creating thread, zeroed registers — rbp = 0 ends frame-pointer walks),
// then entry's address, then a null return address for entry itself. The
// entry address sits 16-byte aligned, so entry starts with the ABI's
// call-site alignment. Returns the stack pointer to switch to.
void* prepare_stack(char* stack, std::size_t bytes, void (*entry)()) {
  const auto top =
      (reinterpret_cast<std::uintptr_t>(stack) + bytes) & ~std::uintptr_t{15};
  auto* sp = reinterpret_cast<std::uint64_t*>(top - 80);
  std::memset(sp, 0, 80);
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));
  sp[0] = fcw;
  sp[1] = mxcsr;
  sp[8] = reinterpret_cast<std::uintptr_t>(entry);
  return sp;
}

// A process running with CET shadow stacks would fault on the switch's
// cross-stack `ret`; such a process keeps to the thread backend.
bool shadow_stack_active() {
#if defined(__linux__)
  static const bool active = [] {
    unsigned long features = 0;
    // ARCH_SHSTK_STATUS (Linux >= 6.6; older kernels reject the code).
    return syscall(SYS_arch_prctl, 0x5005, &features) == 0 &&
           (features & 1) != 0;
  }();
  return active;
#else
  return false;
#endif
}
#else
// No switch for this architecture: fibers_enabled() is false, so run_spmd
// always takes the thread backend.
constexpr bool kSwitchAvailable = false;
void* prepare_stack(char*, std::size_t, void (*)()) { return nullptr; }
bool shadow_stack_active() { return false; }
void tsr_fiber_switch(void**, void*) { std::abort(); }
#endif

// ASan and TSan track stacks per OS thread; the fiber switch moves the stack
// pointer without telling them and produces false positives or crashes, so
// the fiber backend turns itself off under those sanitizers (run_spmd falls
// back to one OS thread per rank).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerActive = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizerActive = true;
#else
constexpr bool kSanitizerActive = false;
#endif
#else
constexpr bool kSanitizerActive = false;
#endif


// Fiber lifecycle, driven by lock-free transitions so a waker on another
// worker can race the fiber's own suspension without losing the wake:
//   Runnable --(worker claims)--> Running --(block_current)--> Blocked
//   Blocked --(wake)--> Runnable
//   Running --(wake)--> WakePending   (consumed by the next block_current,
//                                      which then returns immediately)
//   Running --(fn returned)--> Done
enum : int { kRunnable, kRunning, kBlocked, kWakePending, kDone };

struct Fiber {
  void* sp = nullptr;  // saved stack pointer while suspended
  std::unique_ptr<char[]> stack;
  std::atomic<int> state{kRunnable};
  std::exception_ptr error;
};

struct Worker {
  int id = 0;
  int first = 0, last = 0;  // contiguous rank shard [first, last)
  void* sched_sp = nullptr;  // worker loop's stack pointer while a fiber runs
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> parked{false};
  bool signal = false;  // guarded by mu
  std::uint64_t resumes = 0;
  std::uint64_t parks = 0;
};

// Worker context of the calling thread. current_ worker/rank are what
// current_scheduler() / current_rank() / block_current() resolve against;
// saved and restored around nested runs.
thread_local FiberScheduler* t_scheduler = nullptr;
thread_local Worker* t_worker = nullptr;
thread_local int t_current_rank = -1;

// Process-wide cumulative telemetry (see SchedulerStats).
constexpr int kMaxWorkers = 64;
std::atomic<std::uint64_t> g_runs{0}, g_resumes{0}, g_local_wakes{0},
    g_cross_wakes{0}, g_parks{0}, g_deadlocks{0};
std::atomic<std::uint64_t> g_worker_resumes[kMaxWorkers] = {};

}  // namespace

struct FiberScheduler::Impl {
  int nranks = 0;
  int nworkers = 0;
  std::unique_ptr<Fiber[]> fibers;
  std::unique_ptr<Worker[]> workers;
  const std::function<void(int)>* fn = nullptr;
  FiberScheduler* self = nullptr;
  std::atomic<int> live{0};
  // Low 32 bits: workers parked. High 32 bits: how many times a worker has
  // left park. One word, so the last parker reads both in one step.
  static constexpr std::uint64_t kParkedMask = 0xffffffffu;
  static constexpr std::uint64_t kLeftPark = kParkedMask + 1;
  std::atomic<std::uint64_t> park_state{0};
  std::atomic<bool> cancelled{false};

  // Static contiguous sharding: rank r belongs to worker r * W / nranks
  // (ring neighbours mostly co-located, every worker non-empty).
  int worker_of(int rank) const {
    return static_cast<int>(static_cast<long>(rank) * nworkers / nranks);
  }

  bool shard_has_runnable(const Worker& w) const {
    for (int r = w.first; r < w.last; ++r) {
      const int s = fibers[r].state.load();
      if (s == kRunnable || s == kWakePending) return true;
    }
    return false;
  }

  void unpark(Worker& w) {
    if (&w == t_worker) return;  // it is running us right now
    if (!w.parked.load()) return;
    {
      std::lock_guard lock(w.mu);
      w.signal = true;
    }
    w.cv.notify_one();
  }

  void unpark_all() {
    for (int i = 0; i < nworkers; ++i) unpark(workers[i]);
  }

  // Called by the last worker to park, with the park_state its park
  // produced. All workers parked means no fiber is Running (a running fiber
  // keeps its worker out of park), and every wake stores Runnable before its
  // originating fiber can block — so if the scan still sees every live
  // fiber Blocked, no wake is in flight and none can ever arrive: the
  // cluster deadlocked. Cancel the waits; blocked fibers observe cancelled()
  // in Mailbox::pop and throw, which unwinds their stacks and lets run()
  // report the error.
  //
  // The scan reads one fiber at a time, so it is a snapshot only if no
  // worker left park while it ran: a worker woken just before the scan can
  // run a Runnable fiber the scan has not reached yet, which wakes fibers
  // the scan already read as Blocked, then blocks and parks again. Any such
  // worker bumps the left-park count, so an unchanged park_state proves the
  // snapshot; otherwise that worker re-checks when it parks again.
  void check_quiescence(std::uint64_t parked_state) {
    for (int r = 0; r < nranks; ++r) {
      const int s = fibers[r].state.load();
      if (s != kBlocked && s != kDone) return;
    }
    if (live.load() == 0 || park_state.load() != parked_state) return;
    g_deadlocks.fetch_add(1, std::memory_order_relaxed);
    cancelled.store(true);
    for (int r = 0; r < nranks; ++r) {
      int expected = kBlocked;
      fibers[r].state.compare_exchange_strong(expected, kRunnable);
    }
    unpark_all();
  }

  // Fiber entry (the first switch returns into it): picks up scheduler and
  // rank from the thread-local state the worker set before switching.
  static void trampoline() {
    FiberScheduler* s = t_scheduler;
    Impl* im = s->impl_;
    const int rank = t_current_rank;
    Fiber& f = im->fibers[rank];
    try {
      (*im->fn)(rank);
    } catch (...) {
      f.error = std::current_exception();
    }
    f.state.store(kDone);
    if (im->live.fetch_sub(1) == 1) im->unpark_all();  // last rank finished
    // Return to the worker loop; a Done fiber is never resumed, so the loop
    // guard below is unreachable in practice.
    while (true) {
      tsr_fiber_switch(&f.sp, t_worker->sched_sp);
    }
  }

  void worker_loop(int wid) {
    Worker& w = workers[wid];
    FiberScheduler* prev_sched = t_scheduler;
    Worker* prev_worker = t_worker;
    const int prev_rank = t_current_rank;
    const int prev_share = detail::t_host_share;
    t_scheduler = self;
    t_worker = &w;
    t_current_rank = -1;
    // A GEMM inside one of this worker's fibers may use the host share this
    // worker does not occupy with sibling scheduler workers. Nested
    // schedulers keep the share of the fiber they run inside.
    if (prev_share == 0) {
      const int budget = run_config().workers / nworkers;
      detail::t_host_share = budget > 1 ? budget : 1;
    }

    while (live.load() > 0) {
      bool ran = false;
      for (int r = w.first; r < w.last; ++r) {
        Fiber& f = fibers[r];
        // Load first, so a sweep runs the locked CAS only on runnable
        // fibers, not on every blocked one.
        int expected = kRunnable;
        if (f.state.load() != kRunnable ||
            !f.state.compare_exchange_strong(expected, kRunning)) {
          continue;
        }
        ran = true;
        ++w.resumes;
        t_current_rank = r;
        tsr_fiber_switch(&w.sched_sp, f.sp);
        t_current_rank = -1;
      }
      if (ran || live.load() == 0) continue;
      park(w);
    }

    t_scheduler = prev_sched;
    t_worker = prev_worker;
    t_current_rank = prev_rank;
    detail::t_host_share = prev_share;
  }

  void park(Worker& w) {
    w.parked.store(true);
    // Re-check after publishing parked: a wake that stored Runnable before
    // reading parked==false is guaranteed visible to this scan (both sides
    // are seq_cst), so either the waker notifies us or we see the fiber.
    if (shard_has_runnable(w) || live.load() == 0 || cancelled.load()) {
      w.parked.store(false);
      return;
    }
    ++w.parks;
    g_parks.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t parked_state = park_state.fetch_add(1) + 1;
    if ((parked_state & kParkedMask) == static_cast<std::uint64_t>(nworkers)) {
      check_quiescence(parked_state);
    }
    {
      std::unique_lock lock(w.mu);
      w.cv.wait(lock, [&] {
        return w.signal || cancelled.load() || live.load() == 0 ||
               shard_has_runnable(w);
      });
      w.signal = false;
    }
    park_state.fetch_add(kLeftPark - 1);  // one fewer parked, one more left
    w.parked.store(false);
  }
};

FiberScheduler* current_scheduler() { return t_scheduler; }

bool fibers_enabled() {
  if (!kSwitchAvailable || kSanitizerActive || shadow_stack_active()) {
    return false;
  }
  return !run_config().spmd_threads;
}

SchedulerStats scheduler_stats() {
  SchedulerStats s;
  s.runs = g_runs.load();
  s.resumes = g_resumes.load();
  s.local_wakes = g_local_wakes.load();
  s.cross_wakes = g_cross_wakes.load();
  s.parks = g_parks.load();
  s.deadlocks = g_deadlocks.load();
  int top = kMaxWorkers;
  while (top > 0 && g_worker_resumes[top - 1].load() == 0) --top;
  s.worker_resumes.resize(static_cast<std::size_t>(top));
  for (int i = 0; i < top; ++i) s.worker_resumes[i] = g_worker_resumes[i].load();
  return s;
}

void FiberScheduler::run(int nranks, const std::function<void(int)>& fn) {
  Impl impl;
  FiberScheduler sched;
  sched.impl_ = &impl;
  impl.self = &sched;
  impl.fn = &fn;
  impl.nranks = nranks;
  impl.live.store(nranks);
  // Nested clusters (a rank running an inner World::run) stay single-worker
  // on the calling thread: their host share is already owned by the outer
  // scheduler, and their mailbox waits resolve against the innermost
  // scheduler through the usual thread-local save/restore.
  const bool nested = t_scheduler != nullptr;
  int nworkers = nested ? 1 : run_config().workers;
  if (nworkers > nranks) nworkers = nranks;
  if (nworkers > kMaxWorkers) nworkers = kMaxWorkers;
  impl.nworkers = nworkers;

  impl.fibers = std::make_unique<Fiber[]>(static_cast<std::size_t>(nranks));
  const std::size_t stack_bytes = run_config().fiber_stack_bytes;
  if (!kSwitchAvailable) {
    throw std::runtime_error("FiberScheduler: no fiber switch on this architecture");
  }
  for (int r = 0; r < nranks; ++r) {
    Fiber& f = impl.fibers[r];
    // Uninitialized on purpose: a rank touches only the pages its frames
    // reach, so zero-filling 1 MiB per rank per run would be pure overhead.
    f.stack = std::make_unique_for_overwrite<char[]>(stack_bytes);
    f.sp = prepare_stack(f.stack.get(), stack_bytes, &Impl::trampoline);
  }
  impl.workers = std::make_unique<Worker[]>(static_cast<std::size_t>(nworkers));
  // Shard bounds must be the exact inverse of worker_of (floor(r*W/N)):
  // first = ceil(w*N/W), i.e. the smallest rank mapping to worker w. A
  // mismatch would wake one worker while another owns the scan range, which
  // strands a Runnable fiber forever.
  for (int w = 0; w < nworkers; ++w) {
    impl.workers[w].id = w;
    impl.workers[w].first = static_cast<int>(
        (static_cast<long>(w) * nranks + nworkers - 1) / nworkers);
    impl.workers[w].last = static_cast<int>(
        (static_cast<long>(w + 1) * nranks + nworkers - 1) / nworkers);
  }

  g_runs.fetch_add(1, std::memory_order_relaxed);
  if (nworkers == 1) {
    impl.worker_loop(0);
  } else {
    WorkerPool::instance().run_exclusive(
        nworkers, [&impl](int wid) { impl.worker_loop(wid); });
  }

  for (int w = 0; w < nworkers; ++w) {
    g_resumes.fetch_add(impl.workers[w].resumes, std::memory_order_relaxed);
    g_worker_resumes[w].fetch_add(impl.workers[w].resumes,
                                  std::memory_order_relaxed);
  }
  for (int r = 0; r < nranks; ++r) {
    if (impl.fibers[r].error) std::rethrow_exception(impl.fibers[r].error);
  }
}

bool FiberScheduler::cancelled() const { return impl_->cancelled.load(); }

int FiberScheduler::current_rank() const { return t_current_rank; }

void FiberScheduler::block_current() {
  Worker& w = *t_worker;
  Fiber& f = impl_->fibers[t_current_rank];
  int expected = kRunning;
  if (f.state.compare_exchange_strong(expected, kBlocked)) {
    tsr_fiber_switch(&f.sp, w.sched_sp);
  } else {
    // A wake raced us while still Running: consume it and keep going (the
    // caller re-checks its wait condition).
    f.state.store(kRunning);
  }
}

void FiberScheduler::wake(int rank) {
  Impl& im = *impl_;
  Fiber& f = im.fibers[rank];
  for (;;) {
    int s = f.state.load();
    if (s == kBlocked) {
      if (f.state.compare_exchange_strong(s, kRunnable)) {
        Worker& target = im.workers[im.worker_of(rank)];
        if (&target == t_worker) {
          g_local_wakes.fetch_add(1, std::memory_order_relaxed);
        } else {
          g_cross_wakes.fetch_add(1, std::memory_order_relaxed);
        }
        im.unpark(target);
        return;
      }
    } else if (s == kRunning) {
      // Receiver is between releasing the mailbox lock and suspending (or
      // simply still running): leave a pending wake it will consume.
      if (f.state.compare_exchange_strong(s, kWakePending)) return;
    } else {
      return;  // Runnable / WakePending / Done: nothing to do
    }
  }
}

}  // namespace tsr::rt
