#include "src/sched/schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/assert.h"

namespace setlib::sched {
namespace {

TEST(ScheduleTest, AppendAndIndex) {
  Schedule s(3);
  EXPECT_TRUE(s.empty());
  s.append(0);
  s.append(2);
  s.append(1);
  EXPECT_EQ(s.size(), 3);
  EXPECT_EQ(s[0], 0);
  EXPECT_EQ(s[1], 2);
  EXPECT_EQ(s[2], 1);
}

TEST(ScheduleTest, RejectsOutOfRangePids) {
  Schedule s(2);
  EXPECT_THROW(s.append(2), ContractViolation);
  EXPECT_THROW(s.append(-1), ContractViolation);
  EXPECT_THROW((Schedule(2, {0, 1, 2})), ContractViolation);
}

TEST(ScheduleTest, CountsPerProcessAndSet) {
  const Schedule s(3, {0, 1, 0, 2, 0, 1});
  EXPECT_EQ(s.count(0), 3);
  EXPECT_EQ(s.count(1), 2);
  EXPECT_EQ(s.count(2), 1);
  EXPECT_EQ(s.count(0, 1, 4), 1);  // window [1,4) = 1,0,2
}

TEST(ScheduleTest, ConcatPreservesOrder) {
  const Schedule a(2, {0, 1});
  const Schedule b(2, {1, 1});
  const Schedule c = a.concat(b);
  ASSERT_EQ(c.size(), 4);
  EXPECT_EQ(c[0], 0);
  EXPECT_EQ(c[3], 1);
}

TEST(ScheduleTest, HashIsStableAndOrderSensitive) {
  const Schedule s(3, {0, 1, 2});
  EXPECT_EQ(schedule_hash(s), schedule_hash(Schedule(3, {0, 1, 2})));
  // Same multiset of pids, different order: the chain must diverge, or
  // equal hashes would no longer mean bit-identical executions.
  EXPECT_NE(schedule_hash(s), schedule_hash(Schedule(3, {2, 1, 0})));
  EXPECT_NE(schedule_hash(s), schedule_hash(Schedule(3, {1, 0, 2})));
  // n and length are folded in too.
  EXPECT_NE(schedule_hash(s), schedule_hash(Schedule(4, {0, 1, 2})));
  EXPECT_NE(schedule_hash(s), schedule_hash(Schedule(3, {0, 1, 2, 2})));
  EXPECT_NE(schedule_hash(Schedule(2)), schedule_hash(Schedule(3)));
}

// Step i lands in lane i mod 4; each lane is its own chain, and the
// lanes, n and the length are folded together at the end.
TEST(ScheduleTest, HashSeparatesLanesLengthAndN) {
  const Schedule base(5, {0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1});
  const auto swapped = [&](std::int64_t i, std::int64_t j) {
    std::vector<Pid> steps = base.steps();
    std::swap(steps[static_cast<std::size_t>(i)],
              steps[static_cast<std::size_t>(j)]);
    return Schedule(5, std::move(steps));
  };
  // Same lane (i and i + 4): the lane's chain sees another order.
  EXPECT_NE(schedule_hash(base), schedule_hash(swapped(1, 5)));
  EXPECT_NE(schedule_hash(base), schedule_hash(swapped(2, 10)));
  // Adjacent steps sit in different lanes.
  EXPECT_NE(schedule_hash(base), schedule_hash(swapped(3, 4)));
  EXPECT_NE(schedule_hash(base), schedule_hash(swapped(7, 8)));
  // Only the length differs: runs of one pid, each length its own hash.
  std::vector<std::uint64_t> by_length;
  for (int length = 0; length <= 12; ++length) {
    by_length.push_back(
        schedule_hash(Schedule(3, std::vector<Pid>(length, 1))));
  }
  std::sort(by_length.begin(), by_length.end());
  EXPECT_EQ(std::adjacent_find(by_length.begin(), by_length.end()),
            by_length.end());
  // Only n differs.
  EXPECT_NE(schedule_hash(base),
            schedule_hash(Schedule(6, base.steps())));
  EXPECT_NE(schedule_hash(Schedule(4, {0, 0, 0, 0})),
            schedule_hash(Schedule(5, {0, 0, 0, 0})));
}

TEST(ScheduleTest, SliceIsHalfOpen) {
  const Schedule s(3, {0, 1, 2, 0, 1});
  const Schedule mid = s.slice(1, 4);
  ASSERT_EQ(mid.size(), 3);
  EXPECT_EQ(mid[0], 1);
  EXPECT_EQ(mid[2], 0);
  EXPECT_EQ(s.slice(2, 2).size(), 0);
  EXPECT_THROW(s.slice(3, 2), ContractViolation);
}

}  // namespace
}  // namespace setlib::sched
