// Process programs as C++20 coroutines.
//
// An algorithm's per-process code is a coroutine returning Prog. Each
// `co_await shm::read(reg)` / `co_await shm::write(reg, v)` suspends
// the coroutine with a pending register operation; an executor (the
// deterministic Simulator or the threaded runtime, both through
// ProcessRuntime) performs it against an IMemory and resumes. One
// scheduled step = exactly one register operation plus the local
// computation up to the next one — matching the model, where a step is
// a read or write plus a state transition, and local computation is
// free.
//
// Algorithms therefore read like the paper's pseudocode:
//
//   shm::Prog heartbeat_loop(shm::RegisterId hb) {
//     for (std::int64_t v = 1;; ++v) {
//       co_await shm::write(hb, shm::Value::of(v));
//     }
//   }
//
// Sub-programs compose with co_await. A child's register operations
// are the parent's steps, one for one, and the parent continues in the
// same step as the child's last operation:
//
//   std::vector<std::int64_t> view;
//   co_await snapshot.scan(p, &view);  // n..(n+1)^2 steps of p
//
// Several programs race with co_await shm::first_of(kids): the kids
// take one operation each in round-robin order (kid m+1 starts in the
// step of kid m's first operation), and the await returns the index of
// the first kid to finish. The others stay suspended until their Prog
// objects are destroyed.
//
// Flat stacks. However deep the nesting, a task is one stack of frames
// whose innermost frame (the leaf) posts each operation straight into
// the stack record that ProcessRuntime reads; the executor resumes that
// leaf directly. Entering a child and returning from it are symmetric
// transfers (P0913R0), so every step costs exactly one resume at any
// depth, and no operation is copied or relayed through a parent. A
// child's exception propagates to its parent at the co_await, exactly
// like a function call; an exception leaving the task surfaces from the
// executor's step.
//
// Frames come from a per-thread free list in 64-byte size classes up to
// 2 KiB (program.cpp), so once a thread has run a workload's programs,
// later instances of them allocate nothing.
#ifndef SETLIB_SHM_PROGRAM_H
#define SETLIB_SHM_PROGRAM_H

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>
#include <utility>

#include "src/shm/memory.h"
#include "src/shm/value.h"
#include "src/util/assert.h"

namespace setlib::shm {

/// A register operation posted by a suspended program. It is the
/// awaiter of `co_await read()/write()` itself, so it lives in the
/// suspended frame until the executor performs it.
struct Op {
  enum class Kind : std::uint8_t { kRead, kWrite };

  Kind kind;
  RegisterId reg;
  Value value;  // kWrite: the value to write; kRead: the value read
};

class FirstOf;

/// Where a stack of frames posts its next operation. One per task, and
/// one per kid of a first_of race (a kid is a stack of its own).
struct Stack {
  std::coroutine_handle<> leaf;  // the frame to resume after `op`
  Op* op = nullptr;
  FirstOf* race = nullptr;  // set while this stack is a racing kid
};

namespace detail {

/// Per-thread frame free list (program.cpp).
void* frame_alloc(std::size_t bytes);
void frame_free(void* frame, std::size_t bytes) noexcept;

/// Record `op` as the stack's next operation, posted by frame `leaf`;
/// returns the frame to transfer to (a racing kid's post may start or
/// switch to a sibling).
std::coroutine_handle<> post(Stack& stack, std::coroutine_handle<> leaf,
                             Op* op) noexcept;

}  // namespace detail

/// Owning handle to a program coroutine: a task, a child, or a kid.
class Prog {
 public:
  struct promise_type {
    Prog get_return_object() noexcept {
      const auto self =
          std::coroutine_handle<promise_type>::from_promise(*this);
      own.leaf = self;
      return Prog(self);
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<promise_type> h) noexcept;
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      exception = std::current_exception();
    }

    static void* operator new(std::size_t bytes) {
      return detail::frame_alloc(bytes);
    }
    static void operator delete(void* frame, std::size_t bytes) noexcept {
      detail::frame_free(frame, bytes);
    }

    Stack own;            // this frame's stack when it is a task or kid
    Stack* stack = &own;  // the stack this frame runs on
    std::coroutine_handle<promise_type> parent;  // awaiting caller, if any
    std::exception_ptr exception;
  };

  using Handle = std::coroutine_handle<promise_type>;

  Prog() noexcept = default;
  explicit Prog(Handle h) noexcept : h_(h) {}
  Prog(Prog&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Prog& operator=(Prog&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Prog(const Prog&) = delete;
  Prog& operator=(const Prog&) = delete;
  ~Prog() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(h_); }
  bool done() const {
    SETLIB_EXPECTS(valid());
    return h_.done();
  }

  /// Run the task's stack to its next operation (or completion): one
  /// resume of its leaf. Rethrows any exception that left the task.
  void resume() {
    SETLIB_EXPECTS(valid() && !h_.done());
    promise_type& root = h_.promise();
    root.own.leaf.resume();
    if (root.exception) {
      std::rethrow_exception(std::exchange(root.exception, nullptr));
    }
  }

  /// The task's pending operation (valid between resumes while !done()).
  Op& pending() {
    SETLIB_EXPECTS(valid() && h_.promise().own.op != nullptr);
    return *h_.promise().own.op;
  }

  /// `co_await child` inside a program: run the child on the caller's
  /// stack; resumes the caller after the child's last step.
  struct ChildAwaiter {
    Handle child;

    bool await_ready() const {
      SETLIB_EXPECTS(child && !child.done());
      return false;
    }
    std::coroutine_handle<> await_suspend(Handle caller) noexcept {
      promise_type& c = child.promise();
      c.parent = caller;
      c.stack = caller.promise().stack;
      return child;
    }
    void await_resume() const {
      if (child.promise().exception) {
        std::rethrow_exception(
            std::exchange(child.promise().exception, nullptr));
      }
    }
  };
  ChildAwaiter operator co_await() && noexcept { return ChildAwaiter{h_}; }

 private:
  friend class FirstOf;

  void destroy() noexcept {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  Handle h_;
};

/// Awaitable returned by shm::first_of(): races `kids` round-robin, one
/// operation per step, and yields the index of the first to finish
/// (rethrowing its exception if it threw). The kids must be fresh
/// programs; the span must outlive the await.
class FirstOf {
 public:
  explicit FirstOf(std::span<Prog> kids) : kids_(kids) {
    SETLIB_EXPECTS(!kids.empty());
    for (const Prog& k : kids) SETLIB_EXPECTS(k.valid() && !k.done());
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(Prog::Handle caller) noexcept;
  std::size_t await_resume() const;

 private:
  friend std::coroutine_handle<> detail::post(Stack&, std::coroutine_handle<>,
                                              Op*) noexcept;
  friend struct Prog::promise_type::FinalAwaiter;

  Prog::promise_type& kid(std::size_t m) const noexcept {
    return kids_[m].h_.promise();
  }
  // The current kid posted an operation.
  std::coroutine_handle<> posted() noexcept;
  // The current kid finished: the race is over.
  std::coroutine_handle<> finished() noexcept { return caller_; }
  // Start kid `cursor_` (it runs to its first operation).
  std::coroutine_handle<> start_cursor() noexcept;

  std::span<Prog> kids_;
  Prog::Handle caller_;
  std::size_t cursor_ = 0;   // the kid whose operation is pending
  std::size_t started_ = 0;  // kids [0, started_) have been started
  bool starting_ = false;    // kid cursor_ is running to its first op
};

/// Race `kids` (see FirstOf): `std::size_t m = co_await first_of(kids);`
inline FirstOf first_of(std::span<Prog> kids) { return FirstOf(kids); }

/// Program frames the calling thread has taken from the global heap
/// rather than its free list. Stays flat once a workload's frames
/// recycle.
std::int64_t frame_heap_allocations() noexcept;

namespace detail {

inline std::coroutine_handle<> post(Stack& stack, std::coroutine_handle<> leaf,
                                    Op* op) noexcept {
  stack.leaf = leaf;
  stack.op = op;
  if (stack.race == nullptr) return std::noop_coroutine();
  return stack.race->posted();
}

}  // namespace detail

inline std::coroutine_handle<> Prog::promise_type::FinalAwaiter::await_suspend(
    Handle h) noexcept {
  promise_type& p = h.promise();
  if (p.parent) return p.parent;  // a child: back to its caller
  if (p.own.race != nullptr) return p.own.race->finished();  // won a race
  return std::noop_coroutine();  // a task: back to the executor
}

inline std::coroutine_handle<> FirstOf::start_cursor() noexcept {
  ++started_;
  starting_ = true;
  Prog::promise_type& k = kid(cursor_);
  k.own.race = this;
  return k.own.leaf;
}

inline std::coroutine_handle<> FirstOf::posted() noexcept {
  if (starting_) {
    starting_ = false;
  } else {
    if (++cursor_ == kids_.size()) cursor_ = 0;
    if (cursor_ == started_) return start_cursor();
  }
  // Kid cursor_'s operation is now the caller's stack's next operation.
  const Stack& s = kid(cursor_).own;
  return detail::post(*caller_.promise().stack, s.leaf, s.op);
}

inline std::coroutine_handle<> FirstOf::await_suspend(
    Prog::Handle caller) noexcept {
  caller_ = caller;
  cursor_ = 0;
  started_ = 0;
  return start_cursor();
}

inline std::size_t FirstOf::await_resume() const {
  Prog::promise_type& won = kid(cursor_);
  if (won.exception) {
    std::rethrow_exception(std::exchange(won.exception, nullptr));
  }
  return cursor_;
}

/// Awaitable returned by shm::read().
struct ReadOp : Op {
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(Prog::Handle h) noexcept {
    return detail::post(*h.promise().stack, h, this);
  }
  Value await_resume() noexcept { return std::move(value); }
};

/// Awaitable returned by shm::write().
struct WriteOp : Op {
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(Prog::Handle h) noexcept {
    return detail::post(*h.promise().stack, h, this);
  }
  void await_resume() const noexcept {}
};

/// One read step: `Value v = co_await shm::read(reg);`
inline ReadOp read(RegisterId reg) {
  return ReadOp{{Op::Kind::kRead, reg, Value()}};
}

/// One write step: `co_await shm::write(reg, v);`
inline WriteOp write(RegisterId reg, Value v) {
  return WriteOp{{Op::Kind::kWrite, reg, std::move(v)}};
}

}  // namespace setlib::shm

#endif  // SETLIB_SHM_PROGRAM_H
