// Schedules (Section 2 of the paper).
//
// A schedule is a finite or infinite sequence of process ids; a step is
// one element. We materialize finite prefixes of the paper's infinite
// schedules: generators (generators.h) extend a prefix on demand, and
// eventual properties are checked over suffixes (analyzer.h).
#ifndef SETLIB_SCHED_SCHEDULE_H
#define SETLIB_SCHED_SCHEDULE_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/assert.h"
#include "src/util/procset.h"
#include "src/util/rng.h"

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

  /// Concatenation (paper's S . S').
  Schedule concat(const Schedule& other) const;

  /// The sub-schedule [from, to) as a new Schedule.
  Schedule slice(std::int64_t from, std::int64_t to) const;

 private:
  int n_;
  std::vector<Pid> steps_;
};

/// The replay hash, fed one step at a time: the simulator adds each
/// step as it executes, so a finished run's hash costs no second walk
/// over its schedule. Step i goes to lane i mod 4, and each lane is its
/// own splitmix64 chain (state += pid + 1, then mix), so the four
/// chains are independent and their mixes overlap instead of queueing
/// behind one another. Within a lane the mixed output feeds the next
/// fold, so step ORDER, not just the multiset of pids, shapes the hash;
/// steps swapped across lanes land in different chains. finish(n)
/// chains n, the four lanes in lane order, and the length last, which
/// keeps e.g. (n=2, "010") distinct from (n=3, "010").
class ScheduleHasher {
 public:
  void add(Pid p) noexcept {
    std::uint64_t& lane = lanes_[length_ & 3];
    lane += static_cast<std::uint64_t>(p) + 1;
    lane = splitmix64(lane);
    ++length_;
  }

  std::uint64_t finish(int n) const noexcept {
    std::uint64_t state = kChainSeed + static_cast<std::uint64_t>(n);
    state = splitmix64(state);
    for (const std::uint64_t lane : lanes_) {
      state += lane;
      state = splitmix64(state);
    }
    state += length_;
    return splitmix64(state);
  }

 private:
  static constexpr std::uint64_t kChainSeed = 0x5e741a11u;  // arbitrary

  // Lane seeds: the first four outputs of a splitmix64 stream from
  // kChainSeed, so no two lanes start equal.
  static constexpr std::array<std::uint64_t, 4> seeds() noexcept {
    std::uint64_t state = kChainSeed;
    std::array<std::uint64_t, 4> out{};
    for (std::uint64_t& seed : out) seed = splitmix64(state);
    return out;
  }

  std::array<std::uint64_t, 4> lanes_ = seeds();
  std::uint64_t length_ = 0;
};

/// Replay hash of a whole schedule: ScheduleHasher over its steps. Two
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
