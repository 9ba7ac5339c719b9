// Annotated synchronization primitives.
//
// Clang's thread-safety analysis only follows lock/unlock calls that
// carry capability attributes, and libstdc++'s std::mutex carries
// none — so every mutex-guarded class in this library uses these thin
// wrappers instead of the std types directly. Mutex is an annotated
// std::mutex; MutexLock is the scoped guard the analysis understands;
// CondVar wraps std::condition_variable so waits keep the native
// futex path while the analysis sees the lock as continuously held
// across the wait (which is exactly the invariant predicate waits
// rely on). GCC builds compile the same code with the annotations
// erased — the wrappers add no state and no extra locking.
#ifndef SETLIB_UTIL_SYNC_H
#define SETLIB_UTIL_SYNC_H

#include <condition_variable>
#include <mutex>
#include <utility>

#include "src/util/thread_annotations.h"

namespace setlib::util {

/// std::mutex with capability annotations. BasicLockable, so it also
/// works with std::scoped_lock/std::unique_lock where a non-annotated
/// context needs one (prefer MutexLock: the analysis tracks it).
class SETLIB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SETLIB_ACQUIRE() { mu_.lock(); }
  void unlock() SETLIB_RELEASE() { mu_.unlock(); }
  bool try_lock() SETLIB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped std::mutex, for interop (CondVar's adopted waits).
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII guard: acquires `mu` for its whole scope. The annotated
/// equivalent of std::scoped_lock/std::lock_guard.
class SETLIB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SETLIB_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() SETLIB_RELEASE() { mu_.unlock(); }

 private:
  Mutex& mu_;
};

/// std::condition_variable over an annotated Mutex. Waits are
/// deliberately unpredicated: callers loop on their own condition
/// (`while (!ready_) cv_.wait(mu_);`), so every guarded-member read
/// stays inside the caller's annotated function body where the
/// analysis can see the lock. wait() takes the Mutex itself (caller
/// must hold it — SETLIB_REQUIRES), adopts it into a std::unique_lock
/// for the native wait, and releases the adoption on return, so
/// ownership stays with the caller's MutexLock throughout.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Blocks until notified (or spuriously woken — loop on the
  /// condition).
  void wait(Mutex& mu) SETLIB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.native(), std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership returns to the caller's guard
  }

 private:
  std::condition_variable cv_;
};

}  // namespace setlib::util

#endif  // SETLIB_UTIL_SYNC_H
