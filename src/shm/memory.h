// Shared memory: the register set Xi.
//
// SimMemory is the one memory every algorithm runs on, under the
// Simulator; its register operations are direct calls. Registers are allocated by name during a
// setup phase (before any step executes); reads of never-written
// registers return the bottom Value. Nothing wraps the memory to watch
// a run: a shm::StepObserver (observer.h) sees each step's operation
// and reads its value with peek().
//
// Threading model: SimMemory is single-threaded by construction — it
// is only touched by one step at a time, inside the Simulator's step
// loop. It therefore owns no locks and no thread-safety annotations.
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

/// Register names, one entry per alloc()/alloc_array() call; ids are
/// dense and allocated in order.
/// All names share one character buffer. The first registration
/// reserves room for the names of a serving batch of up to about 40
/// slots, so set-up does not regrow the table.
class RegisterNames {
 public:
  /// Name the next `count` register ids; returns the first. `array`
  /// renders element i as "name[i]", otherwise the name is used as is.
  RegisterId add(std::string_view name, std::int64_t count, bool array);

  std::string name(RegisterId reg) const;

 private:
  static constexpr std::size_t kFirstBlocks = 128;
  static constexpr std::size_t kFirstChars = 2048;

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

/// Deterministic single-threaded memory. The first registration
/// reserves kFirstRegisters registers, so a sweep cell's or serving
/// batch's set-up takes its storage in one allocation.
class SimMemory {
 public:
  SimMemory() = default;

  RegisterId alloc(std::string_view name);

  /// Allocate `count` registers with contiguous ids named
  /// "name[0]".."name[count-1]"; returns the base id.
  RegisterId alloc_array(std::string_view name, std::int64_t count);

  Value read(RegisterId reg);
  void write(RegisterId reg, Value v);
  std::int64_t register_count() const;
  std::string name(RegisterId reg) const;

  /// Total reads/writes performed (for benchmarks and step accounting).
  std::int64_t read_count() const noexcept { return reads_; }
  std::int64_t write_count() const noexcept { return writes_; }

  /// Direct (non-step) inspection for tests, validators and observers.
  const Value& peek(RegisterId reg) const;

 private:
  static constexpr std::size_t kFirstRegisters = 256;

  /// Appends `count` bottom registers.
  void grow(std::int64_t count);

  std::vector<Value> cells_;
  RegisterNames names_;
  std::int64_t reads_ = 0;
  std::int64_t writes_ = 0;
};

}  // namespace setlib::shm

#endif  // SETLIB_SHM_MEMORY_H
