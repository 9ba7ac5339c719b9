#include "src/runtime/rt_memory.h"

#include "src/util/assert.h"

namespace setlib::runtime {

shm::RegisterId RtMemory::alloc(std::string_view name) {
  return alloc_block(name, 1, false);
}

shm::RegisterId RtMemory::alloc_array(std::string_view name,
                                      std::int64_t count) {
  return alloc_block(name, count, true);
}

shm::RegisterId RtMemory::alloc_block(std::string_view name, std::int64_t count,
                                      bool array) {
  SETLIB_EXPECTS(!frozen());
  SETLIB_EXPECTS(count >= 1);
  for (std::int64_t i = 0; i < count; ++i) {
    cells_.push_back(std::make_unique<Cell>());
  }
  return names_.add(name, count, array);
}

shm::Value RtMemory::read(shm::RegisterId reg) {
  SETLIB_EXPECTS(reg >= 0 && reg < register_count());
  Cell& cell = *cells_[static_cast<std::size_t>(reg)];
  reads_.fetch_add(1, std::memory_order_relaxed);
  const util::MutexLock lock(cell.mu);
  return cell.value;
}

void RtMemory::write(shm::RegisterId reg, shm::Value v) {
  SETLIB_EXPECTS(reg >= 0 && reg < register_count());
  Cell& cell = *cells_[static_cast<std::size_t>(reg)];
  writes_.fetch_add(1, std::memory_order_relaxed);
  const util::MutexLock lock(cell.mu);
  cell.value = std::move(v);
}

std::int64_t RtMemory::register_count() const {
  return static_cast<std::int64_t>(cells_.size());
}

std::string RtMemory::name(shm::RegisterId reg) const {
  SETLIB_EXPECTS(reg >= 0 && reg < register_count());
  return names_.name(reg);
}

}  // namespace setlib::runtime
