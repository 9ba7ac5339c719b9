// Clang thread-safety annotation macros (no-op on other compilers).
//
// These wrap Clang's -Wthread-safety attribute set so the lock
// discipline of every mutex-guarded class is checked at compile time:
// which mutex guards which member (SETLIB_GUARDED_BY), which private
// helpers assume the lock is already held (SETLIB_REQUIRES), and which
// RAII types acquire/release a capability (SETLIB_SCOPED_CAPABILITY).
// CMake turns the analysis on as an error (-Wthread-safety -Werror)
// for every Clang build; GCC builds see empty macros and compile the
// exact same code. See docs/STATIC_ANALYSIS.md for the conventions.
//
// The macros are the subset of the Clang documentation's set
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) that the
// code uses, prefixed SETLIB_ so nothing collides with third-party
// headers.
#ifndef SETLIB_UTIL_THREAD_ANNOTATIONS_H
#define SETLIB_UTIL_THREAD_ANNOTATIONS_H

#if defined(__clang__) && (!defined(SWIG))
#define SETLIB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SETLIB_THREAD_ANNOTATION(x)  // no-op
#endif

/// Marks a class as a lockable capability ("mutex", "shard", ...).
#define SETLIB_CAPABILITY(x) SETLIB_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose lifetime holds a capability.
#define SETLIB_SCOPED_CAPABILITY SETLIB_THREAD_ANNOTATION(scoped_lockable)

/// Member data that may only be touched while holding `x`.
#define SETLIB_GUARDED_BY(x) SETLIB_THREAD_ANNOTATION(guarded_by(x))

/// Function that must be called with the given capabilities held.
#define SETLIB_REQUIRES(...) \
  SETLIB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function that acquires the capability and does not release it.
#define SETLIB_ACQUIRE(...) \
  SETLIB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function that releases a held capability.
#define SETLIB_RELEASE(...) \
  SETLIB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

#endif  // SETLIB_UTIL_THREAD_ANNOTATIONS_H
