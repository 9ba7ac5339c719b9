// Schedules (Section 2 of the paper).
//
// A schedule is a finite or infinite sequence of process ids; a step is
// one element. We materialize finite prefixes of the paper's infinite
// schedules: generators (generators.h) extend a prefix on demand, and
// eventual properties are checked over suffixes (analyzer.h).
#ifndef SETLIB_SCHED_SCHEDULE_H
#define SETLIB_SCHED_SCHEDULE_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/assert.h"
#include "src/util/procset.h"

namespace setlib::sched {

/// A finite schedule prefix over processes {0..n-1}.
class Schedule {
 public:
  explicit Schedule(int n);
  Schedule(int n, std::vector<Pid> steps);

  int n() const noexcept { return n_; }
  std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(steps_.size());
  }
  bool empty() const noexcept { return steps_.empty(); }

  Pid operator[](std::int64_t i) const;

  void append(Pid p) {
    SETLIB_EXPECTS(p >= 0 && p < n_);
    steps_.push_back(p);
  }

  /// Capacity for `steps` steps in all, so appends up to there do not
  /// regrow the storage.
  void reserve(std::int64_t steps) {
    SETLIB_EXPECTS(steps >= 0);
    steps_.reserve(static_cast<std::size_t>(steps));
  }

  const std::vector<Pid>& steps() const noexcept { return steps_; }

  /// Number of occurrences of p in [from, to).
  std::int64_t count(Pid p, std::int64_t from, std::int64_t to) const;
  std::int64_t count(Pid p) const { return count(p, 0, size()); }

  /// Number of steps by members of s in [from, to).
  std::int64_t count_set(ProcSet s, std::int64_t from, std::int64_t to) const;
  std::int64_t count_set(ProcSet s) const { return count_set(s, 0, size()); }

  /// Set of processes taking at least one step in [from, size()).
  /// With from = 0 this is the complement of the processes that never
  /// step; a process "correct in S" (infinitely many steps) corresponds,
  /// on a finite prefix, to appearing in the chosen suffix.
  ProcSet appearing_from(std::int64_t from) const;
  ProcSet appearing() const { return appearing_from(0); }

  /// Concatenation (paper's S . S').
  Schedule concat(const Schedule& other) const;

  /// The sub-schedule [from, to) as a new Schedule.
  Schedule slice(std::int64_t from, std::int64_t to) const;

 private:
  int n_;
  std::vector<Pid> steps_;
};

/// Replay hash: a splitmix64 chain over (n, length, step stream). Two
/// schedules collide only if the hash does; equal hashes over the same
/// generator version mean bit-identical executions, which is what the
/// fuzzer corpus and the merged bench rows pin across reruns and shards.
std::uint64_t schedule_hash(const Schedule& s) noexcept;

/// Canonical 16-hex-digit rendering of a schedule hash. JSON numbers are
/// doubles, which lose 64-bit integers past 2^53, so hashes always travel
/// as strings.
std::string hash_hex(std::uint64_t hash);

}  // namespace setlib::sched

#endif  // SETLIB_SCHED_SCHEDULE_H
