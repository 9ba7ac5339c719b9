// Process identifiers and process sets.
//
// The paper works over Pi_n = {1, ..., n}; we use 0-based ids Pid in
// [0, n). A ProcSet is a bitmask over at most kMaxProcs processes, which
// makes the set algebra of Definition 1 and Observations 2-3 (union,
// subset, complement) O(1), and gives a cheap total order for the
// paper's argmin tie-break over Pi_n^k ("break ties using a total order
// on Pi_n^k", Figure 2 line 4).
//
// SubsetRanker provides the combinatorial number system bijection
// between k-subsets of {0..n-1} and dense indices [0, C(n,k)), used to
// lay out the Counter[A, q] register matrix of Figure 2. Rank order is
// colex order, which is numeric mask order, so next_colex steps through
// the ranks one by one without unranking.
#ifndef SETLIB_UTIL_PROCSET_H
#define SETLIB_UTIL_PROCSET_H

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/util/assert.h"

namespace setlib {

// -------------------------------------------------------------------
// Word-block helpers. The analyzer (sched/analyzer.h) packs schedule
// timelines 64 steps per word; these are the shared primitives for
// iterating such blocks. They also back ProcSet's own bit iteration.

/// Steps (bits) per packed timeline word.
inline constexpr int kBitsPerWord = 64;

/// Mask with the low `bits` bits set; `bits` in [0, 64].
constexpr std::uint64_t low_word_mask(int bits) noexcept {
  return bits >= kBitsPerWord ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << bits) - 1;
}

/// Mask selecting bits [lo, hi) of a word; 0 <= lo <= hi <= 64.
constexpr std::uint64_t word_range_mask(int lo, int hi) noexcept {
  return low_word_mask(hi) & ~low_word_mask(lo);
}

/// Visit the set bit positions of `word` in increasing order.
template <typename Fn>
void for_each_set_bit(std::uint64_t word, Fn&& fn) {
  while (word != 0) {
    fn(std::countr_zero(word));
    word &= word - 1;
  }
}

/// Process identifier, 0-based. The paper's process i is Pid i-1.
using Pid = int;

/// Maximum number of processes supported by the bitmask representation.
inline constexpr int kMaxProcs = 63;

/// An immutable-ish set of processes represented as a bitmask.
class ProcSet {
 public:
  constexpr ProcSet() noexcept : mask_(0) {}
  constexpr explicit ProcSet(std::uint64_t mask) noexcept : mask_(mask) {}

  /// The set {0, 1, ..., n-1} (the paper's Pi_n).
  static ProcSet universe(int n);

  /// Singleton {p}.
  static ProcSet of(Pid p);

  /// Build from an explicit list of pids (duplicates allowed).
  static ProcSet of(std::initializer_list<Pid> pids);
  static ProcSet from(const std::vector<Pid>& pids);

  /// The set {lo, lo+1, ..., hi-1}.
  static ProcSet range(Pid lo, Pid hi);

  constexpr std::uint64_t mask() const noexcept { return mask_; }
  bool contains(Pid p) const {
    SETLIB_EXPECTS(p >= 0 && p < kMaxProcs);
    return (mask_ >> p) & 1;
  }
  int size() const noexcept { return std::popcount(mask_); }
  bool empty() const noexcept { return mask_ == 0; }

  ProcSet with(Pid p) const {
    SETLIB_EXPECTS(p >= 0 && p < kMaxProcs);
    return ProcSet(mask_ | (std::uint64_t{1} << p));
  }
  ProcSet without(Pid p) const {
    SETLIB_EXPECTS(p >= 0 && p < kMaxProcs);
    return ProcSet(mask_ & ~(std::uint64_t{1} << p));
  }

  /// Smallest element; requires non-empty.
  Pid min() const;
  /// Largest element; requires non-empty.
  Pid max() const;
  /// The m-th smallest element (0-based); requires m < size().
  Pid nth(int m) const {
    SETLIB_EXPECTS(m >= 0 && m < size());
    std::uint64_t mask = mask_;
    for (int i = 0; i < m; ++i) mask &= mask - 1;  // clear lowest set bit
    return std::countr_zero(mask);
  }

  /// Elements in increasing order.
  std::vector<Pid> to_vector() const;

  /// Visit the elements in increasing order without materializing a
  /// vector (the hot path of the analyzer's column ORs).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_set_bit(mask_, fn);
  }

  friend constexpr ProcSet operator|(ProcSet a, ProcSet b) noexcept {
    return ProcSet(a.mask_ | b.mask_);
  }
  friend constexpr ProcSet operator&(ProcSet a, ProcSet b) noexcept {
    return ProcSet(a.mask_ & b.mask_);
  }
  /// Set difference a \ b.
  friend constexpr ProcSet operator-(ProcSet a, ProcSet b) noexcept {
    return ProcSet(a.mask_ & ~b.mask_);
  }
  friend constexpr bool operator==(ProcSet a, ProcSet b) noexcept {
    return a.mask_ == b.mask_;
  }
  friend constexpr bool operator!=(ProcSet a, ProcSet b) noexcept {
    return a.mask_ != b.mask_;
  }
  /// Total order on sets (by mask value); used for argmin tie-breaks.
  friend constexpr bool operator<(ProcSet a, ProcSet b) noexcept {
    return a.mask_ < b.mask_;
  }

  bool subset_of(ProcSet other) const noexcept {
    return (mask_ & ~other.mask_) == 0;
  }
  bool intersects(ProcSet other) const noexcept {
    return (mask_ & other.mask_) != 0;
  }

  /// Complement within {0..n-1}.
  ProcSet complement(int n) const;

  std::string to_string() const;

 private:
  std::uint64_t mask_;
};

std::ostream& operator<<(std::ostream& os, ProcSet s);

/// n choose k with overflow guard (result must fit in int64).
std::int64_t binomial(int n, int k);

/// The k-subset following `s` (|s| = k >= 1) in colex order — Gosper's
/// successor, with a shift by the lowest set bit in place of the
/// division. next_colex(unrank(r)) == unrank(r + 1) for any SubsetRanker
/// over s's universe; past the last k-subset of {0..n-1} the result has
/// a member >= n.
constexpr ProcSet next_colex(ProcSet s) noexcept {
  const std::uint64_t mask = s.mask();
  const std::uint64_t ripple = mask + (mask & (0 - mask));
  return ProcSet((((ripple ^ mask) >> 2) >> std::countr_zero(mask)) |
                 ripple);
}

/// Enumerate all k-subsets of {0..n-1} in combinadic (rank) order.
std::vector<ProcSet> k_subsets(int n, int k);

/// Bijection between k-subsets of {0..n-1} and [0, C(n,k)), via the
/// combinatorial number system. rank(unrank(r)) == r for all r. Every
/// instance reads one process-wide table of C(i, j) for i, j <=
/// kMaxProcs, so construction allocates nothing.
class SubsetRanker {
 public:
  SubsetRanker(int n, int k);

  int n() const noexcept { return n_; }
  int k() const noexcept { return k_; }
  std::int64_t count() const noexcept { return count_; }

  std::int64_t rank(ProcSet s) const;
  ProcSet unrank(std::int64_t r) const;

 private:
  int n_;
  int k_;
  std::int64_t count_;
};

}  // namespace setlib

#endif  // SETLIB_UTIL_PROCSET_H
