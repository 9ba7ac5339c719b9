#include "src/shm/memory.h"

#include <algorithm>

#include "src/util/assert.h"

namespace setlib::shm {

RegisterId RegisterNames::add(std::string_view name, std::int64_t count,
                              bool array) {
  SETLIB_EXPECTS(count >= 1);
  SETLIB_EXPECTS(chars_.size() + name.size() <= UINT32_MAX);
  if (blocks_.capacity() == 0) {
    blocks_.reserve(kFirstBlocks);
    chars_.reserve(kFirstChars);
  }
  const RegisterId base = count_;
  blocks_.push_back(Block{base, static_cast<std::uint32_t>(chars_.size()),
                          static_cast<std::uint32_t>(name.size()), array});
  chars_.append(name);
  count_ += count;
  return base;
}

std::string RegisterNames::name(RegisterId reg) const {
  SETLIB_EXPECTS(reg >= 0 && reg < count_);
  // The last block starting at or before reg.
  const auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), reg,
      [](RegisterId r, const Block& b) { return r < b.base; });
  const Block& block = *(it - 1);
  std::string out = chars_.substr(block.offset, block.length);
  if (block.array) {
    out.append("[").append(std::to_string(reg - block.base)).append("]");
  }
  return out;
}

void SimMemory::grow(std::int64_t count) {
  SETLIB_EXPECTS(count >= 1);
  const auto more = static_cast<std::size_t>(count);
  if (cells_.capacity() == 0) {
    cells_.reserve(std::max(kFirstRegisters, more));
  }
  cells_.resize(cells_.size() + more);
}

RegisterId SimMemory::alloc(std::string_view name) {
  grow(1);
  return names_.add(name, 1, false);
}

RegisterId SimMemory::alloc_array(std::string_view name, std::int64_t count) {
  grow(count);
  return names_.add(name, count, true);
}

Value SimMemory::read(RegisterId reg) {
  SETLIB_EXPECTS(reg >= 0 && reg < register_count());
  ++reads_;
  return cells_[static_cast<std::size_t>(reg)];
}

void SimMemory::write(RegisterId reg, Value v) {
  SETLIB_EXPECTS(reg >= 0 && reg < register_count());
  ++writes_;
  cells_[static_cast<std::size_t>(reg)] = std::move(v);
}

std::int64_t SimMemory::register_count() const {
  return static_cast<std::int64_t>(cells_.size());
}

std::string SimMemory::name(RegisterId reg) const {
  SETLIB_EXPECTS(reg >= 0 && reg < register_count());
  return names_.name(reg);
}

const Value& SimMemory::peek(RegisterId reg) const {
  SETLIB_EXPECTS(reg >= 0 && reg < register_count());
  return cells_[static_cast<std::size_t>(reg)];
}

}  // namespace setlib::shm
