#include "src/runtime/pool.h"

#include <algorithm>

#include "src/util/assert.h"

namespace setlib::runtime {

thread_local const WorkerPool* WorkerPool::tl_pool_ = nullptr;
thread_local std::size_t WorkerPool::tl_slot_ = 0;

std::size_t WorkerPool::current_slot() const noexcept {
  return tl_pool_ == this ? tl_slot_ : 0;
}

WorkerPool::WorkerPool(int threads) {
  SETLIB_EXPECTS(threads >= 0 && threads <= kMaxThreads);
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1
                      : static_cast<int>(std::min<unsigned>(hw, kMaxThreads));
  }
  threads_ = threads;
  // Persistent workers: the submitting thread is participant 0, so a
  // pool of T threads needs T - 1 parked workers. They spawn exactly
  // once, here, and every subsequent job reuses them.
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] {
      worker_main(static_cast<std::size_t>(w));
    });
    threads_spawned_.fetch_add(1, std::memory_order_acq_rel);
  }
}

WorkerPool::~WorkerPool() {
  {
    const util::MutexLock lock(m_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  // jthreads join on destruction of workers_.
}

void WorkerPool::worker_main(std::size_t self) {
  // A spawned worker belongs to this pool for its whole lifetime.
  tl_pool_ = this;
  tl_slot_ = self;
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      const util::MutexLock lock(m_);
      while (!stopping_ && job_seq_ == seen) work_cv_.wait(m_);
      if (job_seq_ == seen) return;  // stopping and nothing new
      seen = job_seq_;
      job = job_;
    }
    // A worker that wakes after the job drained finds the cursor past
    // n (or no job at all) and parks again.
    if (job) work(*job);
  }
}

void WorkerPool::work(Job& job) {
  for (;;) {
    // Relaxed: the job's fields were published under m_, and the
    // results are published by the acq_rel decrement below.
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return;
    try {
      (*job.fn)(i);
    } catch (...) {
      (*job.errors)[i] = std::current_exception();
    }
    // The thread retiring the job's last index wakes the submitter.
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const util::MutexLock lock(m_);
      done_cv_.notify_all();
    }
  }
}

void WorkerPool::for_each(std::size_t n,
                          const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::vector<std::exception_ptr> errors(n);
  if (threads_ <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  } else {
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->errors = &errors;
    job->n = n;
    job->remaining.store(n, std::memory_order_relaxed);
    {
      const util::MutexLock lock(m_);
      SETLIB_EXPECTS(!busy_);  // one parallel submission at a time
      busy_ = true;
      job_ = job;
      ++job_seq_;
    }
    work_cv_.notify_all();
    // The submitter is participant 0 for the duration of the job; its
    // previous identity (it may be a worker of another pool) is
    // restored on the way out.
    const WorkerPool* const prev_pool = tl_pool_;
    const std::size_t prev_slot = tl_slot_;
    tl_pool_ = this;
    tl_slot_ = 0;
    work(*job);
    tl_pool_ = prev_pool;
    tl_slot_ = prev_slot;
    {
      const util::MutexLock lock(m_);
      while (job->remaining.load(std::memory_order_acquire) > 0) {
        done_cv_.wait(m_);
      }
      job_ = nullptr;
      busy_ = false;
    }
  }
  jobs_completed_.fetch_add(1, std::memory_order_acq_rel);
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

}  // namespace setlib::runtime
