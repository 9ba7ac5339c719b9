// Bump-region allocation for the analysis hot paths, with exact
// accounting.
//
// ArenaAllocator owns a fixed reserve block (allocated eagerly, once,
// at construction) plus any overflow blocks a burst of requests forced
// it to acquire from the upstream heap. allocate() bumps a pointer;
// reset() rewinds to empty AND returns every overflow block to the
// heap, so after a reset the arena is bytewise in its
// just-constructed shape. That trim-on-reset rule is what makes the
// counters deterministic: the upstream traffic of a request sequence
// that starts from a reset arena is a pure function of (sequence,
// reserve size) — independent of which worker thread ran the previous
// cell, how many cells it ran, or what they allocated. The per-cell
// counter deltas of the arena's consumers (the census's and the
// frontier's pair scans) are therefore bit-identical at any thread
// count, like every other deterministic per-cell fact.
//
// Counters: allocs() and bytes() count upstream acquisitions only —
// overflow blocks grabbed beyond the reserve — and are cumulative and
// monotone (rewinds free memory but never un-count it), so callers
// measure a scope by delta. A steady-state cell whose peak footprint
// fits the reserve reports a zero delta: that is the "allocates
// nothing" claim util_arena_test and shm_alloc_test pin. high_water()
// is the peak in_use() observed, the number that says how big the
// reserve must be for a workload to stay steady-state.
//
// FrameScope is the per-cell frame: it captures the arena position on
// entry and rewinds (freeing overflow blocks acquired inside the
// frame) on destruction, so nested analysis scopes stack naturally.
//
// Ownership/threading: an arena is single-owner — one thread at a
// time, no internal locking. The ExperimentRunner keeps one arena per
// pool worker slot and resets it between cells; nothing here is
// shared, so there are no thread-safety annotations to carry (the
// cross-thread hand-off, if any, is the pool's job-completion edge).
#ifndef SETLIB_UTIL_ARENA_H
#define SETLIB_UTIL_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace setlib::util {

class ArenaAllocator {
 public:
  /// Default reserve: comfortably holds a packed 1.5M-step schedule
  /// for the grid sizes the sweeps run (n * len / 8 bytes) plus scan
  /// scratch, so steady-state sweep cells never touch the heap.
  static constexpr std::size_t kDefaultReserve = std::size_t{8} << 20;

  /// Largest supported alignment. Every block's base is pre-aligned to
  /// this (cache-line), so aligning the bump *offset* aligns the
  /// returned address too — without address-dependent padding, which
  /// would make the counters nondeterministic.
  static constexpr std::size_t kMaxAlign = 64;

  explicit ArenaAllocator(std::size_t reserve_bytes = kDefaultReserve);

  ArenaAllocator(const ArenaAllocator&) = delete;
  ArenaAllocator& operator=(const ArenaAllocator&) = delete;

  /// Bump-allocates `size` bytes at the given power-of-two alignment.
  /// Never returns nullptr; size 0 yields a unique valid pointer.
  void* allocate(std::size_t size,
                 std::size_t align = alignof(std::max_align_t));

  /// Typed helper: `count` default-uninitialized T slots. T must be
  /// trivially destructible — nothing ever runs destructors on arena
  /// memory.
  template <typename T>
  T* alloc_array(std::int64_t count) {
    static_assert(std::is_trivially_destructible_v<T>);
    return static_cast<T*>(
        allocate(static_cast<std::size_t>(count) * sizeof(T), alignof(T)));
  }

  /// Rewinds to empty and frees every overflow block, restoring the
  /// just-constructed shape (the determinism contract above).
  void reset() noexcept;

  /// A rewindable position; see FrameScope.
  struct Marker {
    std::size_t block = 0;   // index into the block chain
    std::size_t offset = 0;  // bump offset within that block
    std::size_t in_use = 0;  // total bytes live at the mark
  };
  Marker mark() const noexcept;
  /// Rewinds to `m`, freeing overflow blocks acquired after it. `m`
  /// must come from this arena and still be on the current chain
  /// (markers rewind LIFO).
  void rewind(const Marker& m) noexcept;

  std::size_t reserve_size() const noexcept { return reserve_size_; }
  /// Upstream overflow blocks acquired since construction (monotone).
  std::int64_t allocs() const noexcept { return upstream_allocs_; }
  /// Upstream bytes acquired in those blocks (monotone).
  std::int64_t bytes() const noexcept { return upstream_bytes_; }
  /// Bytes currently bumped (aligned request footprint).
  std::size_t in_use() const noexcept { return in_use_; }
  /// Peak in_use() observed since construction.
  std::size_t high_water() const noexcept { return high_water_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;  // raw storage, size + kMaxAlign
    std::byte* base = nullptr;          // data aligned up to kMaxAlign
    std::size_t size = 0;
    std::size_t offset = 0;
  };

  // Builds a block whose base is kMaxAlign-aligned.
  static Block make_block(std::size_t size);

  // Acquires an overflow block big enough for `size` at `align`.
  void grow(std::size_t size, std::size_t align);

  std::size_t reserve_size_;
  std::vector<Block> blocks_;  // blocks_[0] is the reserve, never freed
  std::size_t current_ = 0;    // block being bumped
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
  std::int64_t upstream_allocs_ = 0;
  std::int64_t upstream_bytes_ = 0;
};

/// RAII frame: rewinds the arena to its entry position on destruction.
/// One per analysis cell; nests LIFO.
class FrameScope {
 public:
  explicit FrameScope(ArenaAllocator& arena) noexcept
      : arena_(arena), marker_(arena.mark()) {}
  ~FrameScope() { arena_.rewind(marker_); }

  FrameScope(const FrameScope&) = delete;
  FrameScope& operator=(const FrameScope&) = delete;

 private:
  ArenaAllocator& arena_;
  ArenaAllocator::Marker marker_;
};

}  // namespace setlib::util

#endif  // SETLIB_UTIL_ARENA_H
