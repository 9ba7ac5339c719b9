#include "src/shm/program.h"

#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define SETLIB_FRAME_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SETLIB_FRAME_POOL_ASAN 1
#endif
#endif

#if defined(SETLIB_FRAME_POOL_ASAN)
#include <sanitizer/asan_interface.h>
#define SETLIB_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define SETLIB_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define SETLIB_POISON(p, n) ((void)(p), (void)(n))
#define SETLIB_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace setlib::shm::detail {

namespace {

// Frames are pooled in 64-byte size classes up to 2 KiB; each coroutine
// function has one frame size, so a workload touches only a handful of
// classes. Larger frames go straight to the global heap.
constexpr std::size_t kGranule = 64;
constexpr std::size_t kClasses = 32;

struct FreeBlock {
  FreeBlock* next;
};

// Trivially destructible, so it stays usable while (and after) the
// thread's thread_local destructors run.
struct PoolState {
  FreeBlock* heads[kClasses];
  std::int64_t heap_frames;  // frames taken from the global heap
  bool armed;  // the drain below is registered for this thread
  bool dead;   // the drain ran: bypass the pool from now on
};

constinit thread_local PoolState t_pool{};

// Returns the thread's cached frames to the heap at thread exit. Frames
// freed later on this thread (a static Prog destroyed at exit, say) go
// straight to the heap.
struct Drain {
  ~Drain() {
    t_pool.dead = true;
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (FreeBlock* block = t_pool.heads[c]) {
        SETLIB_UNPOISON(block, (c + 1) * kGranule);
        t_pool.heads[c] = block->next;
        ::operator delete(block);
      }
    }
  }
};

void arm() {
  static thread_local Drain drain;
  (void)&drain;
  t_pool.armed = true;
}

std::size_t class_of(std::size_t bytes) noexcept {
  return (bytes + kGranule - 1) / kGranule - 1;
}

}  // namespace

// Every pooled-class frame is allocated at its full class size, even
// past the drain, so a frame freed on another thread fits that class.
void* frame_alloc(std::size_t bytes) {
  const std::size_t c = class_of(bytes);
  if (c < kClasses) {
    if (FreeBlock* block = t_pool.heads[c]) {
      SETLIB_UNPOISON(block, (c + 1) * kGranule);
      t_pool.heads[c] = block->next;
      return block;
    }
    if (!t_pool.armed && !t_pool.dead) arm();
  }
  void* frame = ::operator new(c < kClasses ? (c + 1) * kGranule : bytes);
  ++t_pool.heap_frames;
  return frame;
}

void frame_free(void* frame, std::size_t bytes) noexcept {
  const std::size_t c = class_of(bytes);
  if (c >= kClasses || t_pool.dead) {
    ::operator delete(frame);
    return;
  }
  if (!t_pool.armed) arm();
  auto* block = static_cast<FreeBlock*>(frame);
  block->next = t_pool.heads[c];
  t_pool.heads[c] = block;
  SETLIB_POISON(block, (c + 1) * kGranule);
}

}  // namespace setlib::shm::detail

namespace setlib::shm {

std::int64_t frame_heap_allocations() noexcept {
  return detail::t_pool.heap_frames;
}

}  // namespace setlib::shm
