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

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/shm/value.h"
#include "src/util/assert.h"

namespace setlib::shm {

using RegisterId = std::int64_t;

class IMemory {
 public:
  virtual ~IMemory() = default;

  /// Allocate one register. Setup-phase only for threaded memories.
  virtual RegisterId alloc(std::string_view name) = 0;

  /// Allocate `count` registers with contiguous ids named
  /// "name[0]".."name[count-1]"; returns the base id.
  virtual RegisterId alloc_array(std::string_view name,
                                 std::int64_t count) = 0;

  virtual Value read(RegisterId reg) = 0;
  virtual void write(RegisterId reg, Value v) = 0;

  virtual std::int64_t register_count() const = 0;
  virtual std::string name(RegisterId reg) const = 0;

  /// Total reads/writes performed (for benchmarks and step accounting).
  virtual std::int64_t read_count() const = 0;
  virtual std::int64_t write_count() const = 0;
};

/// A register name assembled on the stack from string and integer
/// pieces, so set-up code can name per-instance registers without a
/// heap string: `mem.alloc(RegisterName("ms.slot", s, ".inst", m))`.
class RegisterName {
 public:
  static constexpr std::size_t kMaxLength = 128;

  template <typename... Pieces>
  explicit RegisterName(const Pieces&... pieces) {
    (append(pieces), ...);
  }

  operator std::string_view() const noexcept {
    return {chars_, size_};
  }

 private:
  void append(std::string_view piece) {
    SETLIB_EXPECTS(piece.size() <= kMaxLength - size_);
    piece.copy(chars_ + size_, piece.size());
    size_ += piece.size();
  }
  void append(std::integral auto piece) {
    const auto [end, ec] =
        std::to_chars(chars_ + size_, chars_ + kMaxLength, piece);
    SETLIB_EXPECTS(ec == std::errc());
    size_ = static_cast<std::size_t>(end - chars_);
  }

  char chars_[kMaxLength];
  std::size_t size_ = 0;
};

/// Register names, one entry per alloc()/alloc_array() call. Shared by
/// the IMemory implementations; ids are dense and allocated in order.
/// All names share one character buffer.
class RegisterNames {
 public:
  /// Name the next `count` register ids; returns the first. `array`
  /// renders element i as "name[i]", otherwise the name is used as is.
  RegisterId add(std::string_view name, std::int64_t count, bool array);

  std::string name(RegisterId reg) const;

 private:
  struct Block {
    RegisterId base;
    std::uint32_t offset;  // into chars_
    std::uint32_t length;
    bool array;
  };
  std::vector<Block> blocks_;
  std::string chars_;
  std::int64_t count_ = 0;
};

/// Deterministic single-threaded memory.
class SimMemory final : public IMemory {
 public:
  SimMemory() = default;

  RegisterId alloc(std::string_view name) override;
  RegisterId alloc_array(std::string_view name, std::int64_t count) override;
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
