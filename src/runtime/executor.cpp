#include "src/runtime/executor.h"

#include <exception>

#include "src/util/assert.h"

namespace setlib::runtime {

ThreadedExecutor::ThreadedExecutor(shm::SimMemory& mem, int n)
    : mem_(mem),
      n_(n),
      crash_after_(static_cast<std::size_t>(n),
                   std::numeric_limits<std::int64_t>::max()),
      done_(static_cast<std::size_t>(n)),
      exited_(static_cast<std::size_t>(n)) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
  procs_.reserve(static_cast<std::size_t>(n));
  for (Pid p = 0; p < n; ++p) procs_.emplace_back(p);
  for (auto& d : done_) d.store(false, std::memory_order_relaxed);
  for (auto& e : exited_) e.store(false, std::memory_order_relaxed);
}

shm::ProcessRuntime& ThreadedExecutor::process(Pid p) {
  SETLIB_EXPECTS(p >= 0 && p < n_);
  return procs_[static_cast<std::size_t>(p)];
}

void ThreadedExecutor::crash_after(Pid p, std::int64_t ops) {
  SETLIB_EXPECTS(p >= 0 && p < n_);
  SETLIB_EXPECTS(ops >= 0);
  crash_after_[static_cast<std::size_t>(p)] = ops;
}

ProcSet ThreadedExecutor::crashed() const {
  return ProcSet(crashed_mask_.load(std::memory_order_acquire));
}

void ThreadedExecutor::thread_main(Pid p, Pacer& pacer,
                                   const Options& options) {
  auto& proc = procs_[static_cast<std::size_t>(p)];
  const std::int64_t crash_at = crash_after_[static_cast<std::size_t>(p)];
  const std::function<void()> body = [&] { proc.step(mem_); };
  std::int64_t ops = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (ops >= crash_at) {
      crashed_mask_.fetch_or(std::uint64_t{1} << p,
                             std::memory_order_acq_rel);
      break;
    }
    if (ops >= options.max_ops_per_process) break;
    if (!pacer.step(p, body)) break;
    ++ops;
    total_ops_.fetch_add(1, std::memory_order_relaxed);
    if (options.local_done && ops % kPollEvery == 0 &&
        !done_[static_cast<std::size_t>(p)].load(
            std::memory_order_relaxed) &&
        options.local_done(p)) {
      done_[static_cast<std::size_t>(p)].store(true,
                                               std::memory_order_release);
    }
    if (proc.halted()) {
      done_[static_cast<std::size_t>(p)].store(true,
                                               std::memory_order_release);
      break;
    }
  }
  // Whether crashed, done, stopped, or out of budget: this thread
  // takes no more steps. Publishing exited_ lets the monitor end the
  // run instead of waiting out max_wall for a process that left its
  // loop without being done (op budget, pacer refusal).
  exited_[static_cast<std::size_t>(p)].store(true,
                                             std::memory_order_release);
  pacer.deactivate(p);
}

ThreadedExecutor::RunStats ThreadedExecutor::run(Pacer& pacer,
                                                 const Options& options) {
  const auto start = std::chrono::steady_clock::now();

  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(n_));
    for (Pid p = 0; p < n_; ++p) {
      threads.emplace_back([this, p, &pacer, &options] {
        thread_main(p, pacer, options);
      });
    }

    // Monitor: end the run when no runnable process remains — every
    // process is done, crashed, or has exited its loop (op budget,
    // pacer refusal) — or on wall-clock expiry. (Threads park in
    // pacer waits or loop; the stop flag plus pacer stop release
    // everyone.)
    for (;;) {
      bool all_settled = true;
      const ProcSet crashed_now = crashed();
      for (Pid p = 0; p < n_; ++p) {
        if (crashed_now.contains(p)) continue;
        if (exited_[static_cast<std::size_t>(p)].load(
                std::memory_order_acquire)) {
          continue;
        }
        // A process with a crash still pending is not settled even
        // once its local_done predicate fires: ending the run at
        // first-decision would race the crash injection, making the
        // faulty set depend on how far the OS let this thread run
        // (the KSetWithCrashes flake). Its thread keeps stepping and
        // crashes after exactly crash_after_ ops — deterministic in
        // its own execution — so waiting here is bounded.
        if (crash_after_[static_cast<std::size_t>(p)] !=
            std::numeric_limits<std::int64_t>::max()) {
          all_settled = false;
          break;
        }
        if (done_[static_cast<std::size_t>(p)].load(
                std::memory_order_acquire)) {
          continue;
        }
        all_settled = false;
        break;
      }
      const auto elapsed = std::chrono::steady_clock::now() - start;
      if (all_settled || elapsed >= options.max_wall) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Stop the pacer before publishing the executor stop flag: a
    // worker that observes stop_ exits its loop and deactivates its
    // pid, and the pacer counts a deactivation that kills a
    // constraint's timely set as a real mid-run drop unless its own
    // stop flag is already up. With the old order (executor flag
    // first) a fast-exiting worker could deactivate during the gap
    // and a clean run would report dropped_constraints == 1 — a
    // teardown artifact, not a violation.
    pacer.request_stop();
    stop_.store(true, std::memory_order_release);
    // jthread joins on scope exit (CP.25).
  }

  RunStats stats;
  stats.total_ops = total_ops_.load(std::memory_order_relaxed);
  stats.elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  stats.wall_expired = stats.elapsed >= options.max_wall;
  stats.all_done = true;
  const ProcSet crashed_final = crashed();
  for (Pid p = 0; p < n_; ++p) {
    if (crashed_final.contains(p)) continue;
    if (!done_[static_cast<std::size_t>(p)].load(
            std::memory_order_acquire)) {
      stats.all_done = false;
    }
  }
  return stats;
}

thread_local const WorkerPool* WorkerPool::tl_pool_ = nullptr;
thread_local std::size_t WorkerPool::tl_slot_ = 0;

std::size_t WorkerPool::current_slot() const noexcept {
  return tl_pool_ == this ? tl_slot_ : 0;
}

WorkerPool::WorkerPool(int threads) {
  SETLIB_EXPECTS(threads >= 0);
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : static_cast<int>(hw);
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
