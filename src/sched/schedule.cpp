#include "src/sched/schedule.h"

#include "src/util/assert.h"

namespace setlib::sched {

Schedule::Schedule(int n) : n_(n) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
}

Schedule::Schedule(int n, std::vector<Pid> steps)
    : n_(n), steps_(std::move(steps)) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
  for (Pid p : steps_) SETLIB_EXPECTS(p >= 0 && p < n_);
}

Pid Schedule::operator[](std::int64_t i) const {
  SETLIB_EXPECTS(i >= 0 && i < size());
  return steps_[static_cast<std::size_t>(i)];
}

std::int64_t Schedule::count(Pid p, std::int64_t from, std::int64_t to) const {
  SETLIB_EXPECTS(0 <= from && from <= to && to <= size());
  std::int64_t c = 0;
  for (std::int64_t i = from; i < to; ++i) {
    if (steps_[static_cast<std::size_t>(i)] == p) ++c;
  }
  return c;
}

Schedule Schedule::concat(const Schedule& other) const {
  SETLIB_EXPECTS(other.n_ == n_);
  std::vector<Pid> steps = steps_;
  steps.insert(steps.end(), other.steps_.begin(), other.steps_.end());
  return Schedule(n_, std::move(steps));
}

Schedule Schedule::slice(std::int64_t from, std::int64_t to) const {
  SETLIB_EXPECTS(0 <= from && from <= to && to <= size());
  return Schedule(n_,
                  std::vector<Pid>(steps_.begin() + from, steps_.begin() + to));
}

std::uint64_t schedule_hash(const Schedule& s) noexcept {
  ScheduleHasher hasher;
  for (const Pid p : s.steps()) hasher.add(p);
  return hasher.finish(s.n());
}

std::string hash_hex(std::uint64_t hash) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

}  // namespace setlib::sched
