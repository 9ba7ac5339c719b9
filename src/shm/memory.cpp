#include "src/shm/memory.h"

#include <algorithm>

#include "src/util/assert.h"

namespace setlib::shm {

RegisterId RegisterNames::add(std::string name, std::int64_t count,
                              bool array) {
  SETLIB_EXPECTS(count >= 1);
  const RegisterId base = count_;
  blocks_.push_back(Block{base, array, std::move(name)});
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
  if (!block.array) return block.name;
  return block.name + "[" + std::to_string(reg - block.base) + "]";
}

RegisterId SimMemory::alloc(std::string name) {
  cells_.emplace_back();
  return names_.add(std::move(name), 1, false);
}

RegisterId SimMemory::alloc_array(std::string name, std::int64_t count) {
  SETLIB_EXPECTS(count >= 1);
  cells_.resize(cells_.size() + static_cast<std::size_t>(count));
  return names_.add(std::move(name), count, true);
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
