#include "runtime/worker_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/config.hpp"

namespace tsr::rt {

namespace detail {
thread_local int t_host_share = 0;
}  // namespace detail

int gemm_parallelism() {
  return detail::t_host_share > 0 ? detail::t_host_share : run_config().workers;
}

namespace {

// A blocking fan-out whose n-1 helper calls each need a dedicated thread
// (fiber scheduler worker loops: they park/unpark against each other, so
// running two sequentially on one thread would deadlock the cluster).
struct ExclusiveJob {
  const std::function<void(int)>* fn = nullptr;
  std::atomic<int> remaining{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // first failure; guarded by mu
};

// A data-parallel fan-out: tasks are claimed with fetch_add by the caller
// and by idle pool threads, bounded by max_claimers so a budgeted GEMM is
// not over-parallelized by a coincidentally idle pool.
struct ForJob {
  const std::function<void(int)>* fn = nullptr;
  int ntasks = 0;
  int max_claimers = 1;
  std::atomic<int> next{0};
  std::atomic<int> claimers{0};
  std::atomic<int> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;  // first failure; guarded by mu

  bool exhausted() const { return next.load() >= ntasks; }
};

void run_for_tasks(const std::shared_ptr<ForJob>& job) {
  for (;;) {
    const int t = job->next.fetch_add(1);
    if (t >= job->ntasks) break;
    try {
      (*job->fn)(t);
    } catch (...) {
      std::lock_guard lock(job->mu);
      if (!job->error) job->error = std::current_exception();
    }
    if (job->done.fetch_add(1) + 1 == job->ntasks) {
      std::lock_guard lock(job->mu);
      job->cv.notify_all();
    }
  }
}

}  // namespace

struct WorkerPool::Impl {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::thread> threads;
  std::deque<std::pair<ExclusiveJob*, int>> exclusive_q;
  std::vector<std::shared_ptr<ForJob>> for_jobs;
  int active_exclusive = 0;  // exclusive tasks queued or running
  bool shutdown = false;

  // Callers hold mu. Every outstanding exclusive task gets its own thread;
  // parallel_for only ever adds helpers, so progress never depends on them.
  void ensure_threads(int n) {
    while (static_cast<int>(threads.size()) < n) {
      threads.emplace_back([this] { worker_main(); });
    }
  }

  std::shared_ptr<ForJob> claimable_for_job() {
    for (const std::shared_ptr<ForJob>& j : for_jobs) {
      if (!j->exhausted() && j->claimers.load() < j->max_claimers) return j;
    }
    return nullptr;
  }

  void worker_main() {
    for (;;) {
      std::pair<ExclusiveJob*, int> ex{nullptr, 0};
      std::shared_ptr<ForJob> fj;
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] {
          return shutdown || !exclusive_q.empty() ||
                 claimable_for_job() != nullptr;
        });
        if (shutdown) return;
        if (!exclusive_q.empty()) {
          ex = exclusive_q.front();
          exclusive_q.pop_front();
        } else {
          fj = claimable_for_job();
          if (fj) fj->claimers.fetch_add(1);
        }
      }
      if (ex.first != nullptr) {
        ExclusiveJob& job = *ex.first;
        try {
          (*job.fn)(ex.second);
        } catch (...) {
          std::lock_guard lock(job.mu);
          if (!job.error) job.error = std::current_exception();
        }
        {
          std::lock_guard lock(job.mu);
          job.remaining.fetch_sub(1);
          job.cv.notify_all();
        }
      } else if (fj) {
        run_for_tasks(fj);
        fj->claimers.fetch_sub(1);
      }
    }
  }
};

WorkerPool::WorkerPool() : impl_(new Impl) {}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard lock(impl_->mu);
    impl_->shutdown = true;
  }
  impl_->cv.notify_all();
  for (std::thread& t : impl_->threads) t.join();
  delete impl_;
}

WorkerPool& WorkerPool::instance() {
  static WorkerPool pool;
  return pool;
}

int WorkerPool::threads() const {
  std::lock_guard lock(impl_->mu);
  return static_cast<int>(impl_->threads.size());
}

void WorkerPool::run_exclusive(int n, const std::function<void(int)>& fn) {
  if (n <= 1) {
    if (n == 1) fn(0);
    return;
  }
  ExclusiveJob job;
  job.fn = &fn;
  job.remaining.store(n - 1);
  {
    std::lock_guard lock(impl_->mu);
    impl_->active_exclusive += n - 1;
    impl_->ensure_threads(impl_->active_exclusive);
    for (int i = 1; i < n; ++i) impl_->exclusive_q.emplace_back(&job, i);
  }
  impl_->cv.notify_all();
  std::exception_ptr caller_error;
  try {
    fn(0);
  } catch (...) {
    caller_error = std::current_exception();
  }
  {
    std::unique_lock lock(job.mu);
    job.cv.wait(lock, [&] { return job.remaining.load() == 0; });
  }
  {
    std::lock_guard lock(impl_->mu);
    impl_->active_exclusive -= n - 1;
  }
  if (caller_error) std::rethrow_exception(caller_error);
  if (job.error) std::rethrow_exception(job.error);
}

void WorkerPool::parallel_for(int ntasks, int max_workers,
                              const std::function<void(int)>& fn) {
  if (ntasks <= 0) return;
  if (ntasks == 1 || max_workers <= 1) {
    for (int t = 0; t < ntasks; ++t) fn(t);
    return;
  }
  auto job = std::make_shared<ForJob>();
  job->fn = &fn;
  job->ntasks = ntasks;
  job->max_claimers = max_workers;  // caller counted below
  job->claimers.store(1);           // the caller
  {
    std::lock_guard lock(impl_->mu);
    const int helpers = std::min(ntasks, max_workers) - 1;
    impl_->ensure_threads(impl_->active_exclusive + helpers);
    impl_->for_jobs.push_back(job);
  }
  impl_->cv.notify_all();
  run_for_tasks(job);
  {
    std::unique_lock lock(job->mu);
    job->cv.wait(lock, [&] { return job->done.load() == ntasks; });
  }
  {
    std::lock_guard lock(impl_->mu);
    std::erase(impl_->for_jobs, job);
  }
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace tsr::rt
