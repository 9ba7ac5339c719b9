// Register values.
//
// The paper's register set Xi carries arbitrary values; we model a value
// as a short tuple of 64-bit integers so that multi-field records (e.g.
// a Paxos block {mbal, bal, val}) occupy a single atomic register, as
// the model permits. A default-constructed Value is the unwritten
// "bottom"; readers use at_or() to treat bottom fields as defaults (the
// paper initializes its registers to 0).
//
// Storage: up to kInlineWords words live inside the Value itself, which
// covers every hot register (Paxos blocks {mbal,bal,val,has}, detector
// counters and heartbeats, commit-adopt and BG cells), so reading or
// writing one of them never touches the heap. Wider tuples (snapshot
// segments, BG/safe-agreement payloads) spill to one heap buffer. A
// moved-from Value is bottom.
//
// Threading model: Value is a plain value type with no shared state;
// concurrent use is governed entirely by the memory that stores it
// (SimMemory: single-threaded; runtime::RtMemory: per-cell mutex).
#ifndef SETLIB_SHM_VALUE_H
#define SETLIB_SHM_VALUE_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/util/assert.h"

namespace setlib::shm {

class Value {
 public:
  /// Words stored without a heap allocation.
  static constexpr std::size_t kInlineWords = 4;

  Value() noexcept : size_(0), inline_{} {}
  Value(std::initializer_list<std::int64_t> words) : Value() {
    assign(words.begin(), words.size());
  }
  explicit Value(const std::vector<std::int64_t>& words) : Value() {
    assign(words.data(), words.size());
  }

  Value(const Value& other) : size_(other.size_) {
    if (other.spilled()) {
      heap_ = new std::int64_t[size_];
      std::copy_n(other.heap_, size_, heap_);
    } else {
      std::memcpy(&inline_, &other.inline_, sizeof inline_);
    }
  }
  Value(Value&& other) noexcept : size_(other.size_) { steal(other); }
  Value& operator=(const Value& other) {
    if (this != &other) {
      if (!other.spilled() && !spilled()) {
        size_ = other.size_;
        std::memcpy(&inline_, &other.inline_, sizeof inline_);
      } else {
        *this = Value(other);
      }
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      release();
      size_ = other.size_;
      steal(other);
    }
    return *this;
  }
  ~Value() { release(); }

  // Explicit tuple factories. Prefer these inside coroutine bodies:
  // braced initializer_list temporaries in coroutines trip GCC 12
  // (PR102217, "array used as initializer").
  static Value of(std::int64_t x) noexcept { return Value(1, x, 0, 0, 0); }
  static Value of(std::int64_t a, std::int64_t b) noexcept {
    return Value(2, a, b, 0, 0);
  }
  static Value of(std::int64_t a, std::int64_t b, std::int64_t c) noexcept {
    return Value(3, a, b, c, 0);
  }
  static Value of(std::int64_t a, std::int64_t b, std::int64_t c,
                  std::int64_t d) noexcept {
    return Value(4, a, b, c, d);
  }

  bool is_nil() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  std::int64_t at(std::size_t i) const {
    SETLIB_EXPECTS(i < size_);
    return data()[i];
  }

  /// Field i, or `def` when the value is bottom / too short.
  std::int64_t at_or(std::size_t i, std::int64_t def) const noexcept {
    return i < size_ ? data()[i] : def;
  }

  /// Whole-value convenience for single-word registers.
  std::int64_t as_int_or(std::int64_t def) const noexcept {
    return at_or(0, def);
  }

  friend bool operator==(const Value& a, const Value& b) noexcept {
    return a.size_ == b.size_ && std::equal(a.data(), a.data() + a.size_,
                                            b.data());
  }
  friend bool operator!=(const Value& a, const Value& b) noexcept {
    return !(a == b);
  }

  std::string to_string() const;

 private:
  Value(std::uint32_t size, std::int64_t a, std::int64_t b, std::int64_t c,
        std::int64_t d) noexcept
      : size_(size), inline_{a, b, c, d} {}

  bool spilled() const noexcept { return size_ > kInlineWords; }
  const std::int64_t* data() const noexcept {
    return spilled() ? heap_ : inline_;
  }

  void assign(const std::int64_t* words, std::size_t count) {
    SETLIB_EXPECTS(count <= UINT32_MAX);
    SETLIB_ASSERT(is_nil());
    if (count > kInlineWords) {
      heap_ = new std::int64_t[count];
      std::copy_n(words, count, heap_);
    } else {
      std::copy_n(words, count, inline_);
    }
    size_ = static_cast<std::uint32_t>(count);
  }

  // Takes other's words or heap buffer (size_ already copied) and
  // leaves other bottom.
  void steal(Value& other) noexcept {
    if (other.spilled()) {
      heap_ = other.heap_;
    } else {
      std::memcpy(&inline_, &other.inline_, sizeof inline_);
    }
    other.size_ = 0;
  }

  void release() noexcept {
    if (spilled()) delete[] heap_;
  }

  std::uint32_t size_;
  union {
    std::int64_t inline_[kInlineWords];
    std::int64_t* heap_;
  };
};

static_assert(sizeof(Value) <= 40, "Value must stay cheap to move");

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace setlib::shm

#endif  // SETLIB_SHM_VALUE_H
