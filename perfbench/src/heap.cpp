// Global operator new/delete replacements that count heap traffic
// while counting is enabled (HeapScope in probes.h). Disabled, the
// cost is one relaxed load per allocation. Enabled, each thread counts
// into its own cache line, so pool workers do not contend.
#include <atomic>
#include <cstdlib>
#include <new>

#include "probes.h"

namespace {

struct alignas(64) Slot {
  std::atomic<std::int64_t> allocs{0};
  std::atomic<std::int64_t> bytes{0};
};
// Threads beyond this share slots and may then lose counts; the pool
// is far narrower.
constexpr int kSlots = 64;

std::atomic<bool> g_counting{false};
std::atomic<int> g_next_slot{0};
Slot g_slots[kSlots];
thread_local int t_slot = -1;

void note(std::size_t size) noexcept {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (t_slot < 0) t_slot = g_next_slot.fetch_add(1) % kSlots;
  Slot& slot = g_slots[t_slot];
  slot.allocs.store(slot.allocs.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  slot.bytes.store(slot.bytes.load(std::memory_order_relaxed) +
                       static_cast<std::int64_t>(size),
                   std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
  note(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  note(size);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

void heap_counting(bool on) noexcept {
  g_counting.store(on, std::memory_order_relaxed);
}

HeapCount heap_count() noexcept {
  HeapCount total;
  for (const Slot& slot : g_slots) {
    total.allocs += slot.allocs.load(std::memory_order_relaxed);
    total.bytes += slot.bytes.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note(size);
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
