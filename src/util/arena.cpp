#include "src/util/arena.h"

#include <algorithm>

#include "src/util/assert.h"

namespace setlib::util {

namespace {

std::size_t align_up(std::size_t value, std::size_t align) noexcept {
  return (value + align - 1) & ~(align - 1);
}

}  // namespace

ArenaAllocator::Block ArenaAllocator::make_block(std::size_t size) {
  Block block;
  // Not zero-filled: every consumer writes arena memory before it
  // reads it, and a fill would cost a memset of the whole block and
  // make an untouched reserve resident.
  block.data = std::make_unique_for_overwrite<std::byte[]>(size + kMaxAlign);
  // The address feeds only this block's private base adjustment; no
  // ordering, hashing, or counter ever sees it, so ASLR cannot leak
  // into any reported fact.
  // clang-format off
  const std::uintptr_t raw = reinterpret_cast<std::uintptr_t>(block.data.get());  // determinism: allow(alignment-only use)
  // clang-format on
  block.base = block.data.get() +
               (align_up(raw, kMaxAlign) - raw);  // constant per block
  block.size = size;
  return block;
}

ArenaAllocator::ArenaAllocator(std::size_t reserve_bytes)
    : reserve_size_(std::max<std::size_t>(reserve_bytes, 64)) {
  // The reserve is acquired here, eagerly, and is never part of the
  // allocs()/bytes() traffic: lazy acquisition would charge it to
  // whichever cell happened to run first on this arena, making the
  // per-cell deltas depend on scheduling history.
  blocks_.push_back(make_block(reserve_size_));
}

void* ArenaAllocator::allocate(std::size_t size, std::size_t align) {
  SETLIB_EXPECTS(align != 0 && (align & (align - 1)) == 0 &&
                 align <= kMaxAlign);
  Block* block = &blocks_[current_];
  std::size_t offset = align_up(block->offset, align);
  if (offset + size > block->size || offset + size < offset) {
    grow(size, align);
    block = &blocks_[current_];
    offset = align_up(block->offset, align);
  }
  const std::size_t consumed = (offset - block->offset) + size;
  block->offset = offset + size;
  in_use_ += consumed;
  if (in_use_ > high_water_) high_water_ = in_use_;
  return block->base + offset;
}

void ArenaAllocator::grow(std::size_t size, std::size_t align) {
  // Overflow block size is a pure function of the single request (and
  // the fixed reserve size), never of the chain length, so the
  // upstream byte count of a request sequence is reproducible.
  const std::size_t need = align_up(size, align) + align;
  const std::size_t block_size = std::max(need, reserve_size_);
  // Drop any chain tail a previous rewind left behind: markers rewind
  // LIFO, so a rewound-past block can never be bumped again.
  blocks_.resize(current_ + 1);
  blocks_.push_back(make_block(block_size));
  ++current_;
  ++upstream_allocs_;
  upstream_bytes_ += static_cast<std::int64_t>(block_size);
}

void ArenaAllocator::reset() noexcept {
  blocks_.resize(1);  // trim every overflow block back to the reserve
  blocks_[0].offset = 0;
  current_ = 0;
  in_use_ = 0;
}

ArenaAllocator::Marker ArenaAllocator::mark() const noexcept {
  return Marker{current_, blocks_[current_].offset, in_use_};
}

void ArenaAllocator::rewind(const Marker& m) noexcept {
  SETLIB_ASSERT(m.block <= current_ && m.in_use <= in_use_);
  // Free overflow blocks acquired inside the frame (never the
  // reserve), so repeated frames re-acquire identically and the
  // counter deltas of a frame are reproducible.
  blocks_.resize(std::max<std::size_t>(m.block + 1, 1));
  current_ = m.block;
  blocks_[current_].offset = m.offset;
  in_use_ = m.in_use;
}

}  // namespace setlib::util
