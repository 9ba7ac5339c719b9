// Thread-safe shared memory for the real-time runtime.
//
// Same IMemory interface the simulator uses, so the coroutine algorithm
// code is executor-agnostic: one mutex per register provides
// linearizable (atomic MWMR register) semantics. Registers must be
// allocated during the single-threaded setup phase; freeze() is called
// by the executor before spawning threads and further alloc() calls
// throw.
#ifndef SETLIB_RUNTIME_RT_MEMORY_H
#define SETLIB_RUNTIME_RT_MEMORY_H

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/shm/memory.h"
#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace setlib::runtime {

class RtMemory final : public shm::IMemory {
 public:
  RtMemory() = default;

  shm::RegisterId alloc(std::string_view name) override;
  shm::RegisterId alloc_array(std::string_view name,
                              std::int64_t count) override;
  shm::Value read(shm::RegisterId reg) override;
  void write(shm::RegisterId reg, shm::Value v) override;
  std::int64_t register_count() const override;
  std::string name(shm::RegisterId reg) const override;
  std::int64_t read_count() const override {
    return reads_.load(std::memory_order_relaxed);
  }
  std::int64_t write_count() const override {
    return writes_.load(std::memory_order_relaxed);
  }

  /// Forbid further allocation (executor calls this before threads
  /// start; allocation would reallocate the cell vector under readers).
  void freeze() noexcept { frozen_.store(true, std::memory_order_release); }
  bool frozen() const noexcept {
    return frozen_.load(std::memory_order_acquire);
  }

 private:
  shm::RegisterId alloc_block(std::string_view name, std::int64_t count,
                              bool array);

  struct Cell {
    mutable util::Mutex mu;
    shm::Value value SETLIB_GUARDED_BY(mu);
  };

  // The cell vector itself is setup-phase-only: alloc() appends until
  // freeze(), and the executor freezes before any reader thread
  // exists, so only each cell's payload needs a guard.
  std::vector<std::unique_ptr<Cell>> cells_;
  shm::RegisterNames names_;
  std::atomic<bool> frozen_{false};
  std::atomic<std::int64_t> reads_{0};
  std::atomic<std::int64_t> writes_{0};
};

}  // namespace setlib::runtime

#endif  // SETLIB_RUNTIME_RT_MEMORY_H
