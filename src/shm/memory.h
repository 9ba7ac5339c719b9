// Shared memory: the register set Xi.
//
// IMemory is the single algorithm-facing interface; SimMemory is the
// deterministic single-threaded implementation used by the Simulator,
// and runtime/rt_memory.h provides the mutex-protected implementation
// used by the threaded executor. Registers are allocated by name during
// a setup phase (before any step executes); reads of never-written
// registers return the bottom Value.
//
// Threading model: SimMemory is single-threaded by construction — it
// only ever runs inside the Simulator's step loop, which serializes
// every process step on one thread. It therefore owns no locks and no
// thread-safety annotations; concurrent access goes through
// runtime::RtMemory instead.
#ifndef SETLIB_SHM_MEMORY_H
#define SETLIB_SHM_MEMORY_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/shm/value.h"

namespace setlib::shm {

using RegisterId = std::int64_t;

class IMemory {
 public:
  virtual ~IMemory() = default;

  /// Allocate one register. Setup-phase only for threaded memories.
  virtual RegisterId alloc(std::string name) = 0;

  /// Allocate `count` registers with contiguous ids named
  /// "name[0]".."name[count-1]"; returns the base id.
  virtual RegisterId alloc_array(std::string name, std::int64_t count) = 0;

  virtual Value read(RegisterId reg) = 0;
  virtual void write(RegisterId reg, Value v) = 0;

  virtual std::int64_t register_count() const = 0;
  virtual std::string name(RegisterId reg) const = 0;

  /// Total reads/writes performed (for benchmarks and step accounting).
  virtual std::int64_t read_count() const = 0;
  virtual std::int64_t write_count() const = 0;
};

/// Register names, one entry per alloc()/alloc_array() call. Shared by
/// the IMemory implementations; ids are dense and allocated in order.
class RegisterNames {
 public:
  /// Name the next `count` register ids; returns the first. `array`
  /// renders element i as "name[i]", otherwise the name is used as is.
  RegisterId add(std::string name, std::int64_t count, bool array);

  std::string name(RegisterId reg) const;

 private:
  struct Block {
    RegisterId base;
    bool array;
    std::string name;
  };
  std::vector<Block> blocks_;
  std::int64_t count_ = 0;
};

/// Deterministic single-threaded memory.
class SimMemory final : public IMemory {
 public:
  SimMemory() = default;

  RegisterId alloc(std::string name) override;
  RegisterId alloc_array(std::string name, std::int64_t count) override;
  Value read(RegisterId reg) override;
  void write(RegisterId reg, Value v) override;
  std::int64_t register_count() const override;
  std::string name(RegisterId reg) const override;
  std::int64_t read_count() const override { return reads_; }
  std::int64_t write_count() const override { return writes_; }

  /// Direct (non-step) inspection for tests/validators.
  const Value& peek(RegisterId reg) const;

 private:
  std::vector<Value> cells_;
  RegisterNames names_;
  std::int64_t reads_ = 0;
  std::int64_t writes_ = 0;
};

}  // namespace setlib::shm

#endif  // SETLIB_SHM_MEMORY_H
