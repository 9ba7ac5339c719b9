// WorkerPool: spreads an index space of *independent* heavy tasks
// (sweep cells, experiment grid rows, census pair chunks) across
// worker threads. The whole space [0, n) is known when a job is
// submitted, so scheduling is plain self-scheduling: every participant
// claims the next index from one shared atomic cursor until the cursor
// passes n.
//
// The pool is persistent: worker threads spawn once in the constructor
// and park on a condition variable between jobs, so sequential
// for_each calls (the ExperimentRunner's sweep sections) reuse the
// same threads instead of respawning. threads_spawned() exposes the
// lifetime spawn count, jobs_completed() the number of drained jobs —
// together they make the reuse observable in tests.
#ifndef SETLIB_RUNTIME_POOL_H
#define SETLIB_RUNTIME_POOL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace setlib::runtime {

class WorkerPool {
 public:
  /// Widest pool: the command-line parsers reject a larger --threads,
  /// and the constructor refuses one before it spawns or reserves
  /// anything.
  static constexpr int kMaxThreads = 256;

  /// threads in [0, kMaxThreads]; 0 picks
  /// min(std::thread::hardware_concurrency(), kMaxThreads).
  explicit WorkerPool(int threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const noexcept { return threads_; }

  /// Worker threads spawned over the pool's lifetime. Constant from
  /// construction on — a persistent pool never respawns.
  std::int64_t threads_spawned() const noexcept {
    return threads_spawned_.load(std::memory_order_acquire);
  }

  /// for_each jobs drained so far.
  std::int64_t jobs_completed() const noexcept {
    return jobs_completed_.load(std::memory_order_acquire);
  }

  /// The calling thread's worker slot in THIS pool, in [0, threads()):
  /// a pool worker reads its spawn index, the submitting thread reads
  /// 0 while it participates in a for_each, and any foreign thread
  /// reads 0. Stable across jobs, so it can index per-worker state
  /// (the ExperimentRunner's per-worker arenas) — two indices running
  /// concurrently in one for_each never observe the same slot.
  std::size_t current_slot() const noexcept;

  /// Runs fn(i) exactly once for every i in [0, n); blocks until all
  /// indices completed. Exceptions thrown by fn are captured per index
  /// and the one with the smallest index is rethrown after every
  /// worker has drained — so propagation is deterministic at any
  /// thread count and no index is silently skipped.
  ///
  /// One parallel submission at a time: the pool has a single job
  /// slot, so concurrent (or nested, from inside fn) parallel
  /// for_each calls on the same pool are a contract violation —
  /// asserted, not silently serialized. Serial fallbacks (one
  /// participant) are reentrancy-safe.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Job {
    // fn/errors/n are written once before the job is published under
    // m_ and read-only afterwards; next is the claim cursor and
    // remaining the atomic completion count.
    const std::function<void(std::size_t)>* fn = nullptr;
    std::vector<std::exception_ptr>* errors = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};       // next unclaimed index
    std::atomic<std::size_t> remaining{0};  // indices not yet executed
  };

  void worker_main(std::size_t self);
  void work(Job& job);

  // Pool-scoped worker identity: the pool this thread last worked for
  // and its slot there. Scoped to a (pool, slot) pair — not a bare
  // slot — so a worker of pool A that drives a serial for_each on an
  // unrelated pool B still reads slot 0 *for B* instead of smuggling
  // its A-slot out of range.
  static thread_local const WorkerPool* tl_pool_;
  static thread_local std::size_t tl_slot_;

  int threads_;
  std::atomic<std::int64_t> threads_spawned_{0};
  std::atomic<std::int64_t> jobs_completed_{0};

  util::Mutex m_;
  util::CondVar work_cv_;  // workers park here between jobs
  util::CondVar done_cv_;  // the submitter waits here
  // Current job (null when idle).
  std::shared_ptr<Job> job_ SETLIB_GUARDED_BY(m_);
  // Bumped per submitted job.
  std::uint64_t job_seq_ SETLIB_GUARDED_BY(m_) = 0;
  // A parallel job is in flight.
  bool busy_ SETLIB_GUARDED_BY(m_) = false;
  bool stopping_ SETLIB_GUARDED_BY(m_) = false;

  std::vector<std::jthread> workers_;  // last: joins before members die
};

}  // namespace setlib::runtime

#endif  // SETLIB_RUNTIME_POOL_H
