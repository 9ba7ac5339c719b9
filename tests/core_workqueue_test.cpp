// core::WorkQueue: the lease scheduler behind the elastic
// orchestrator. An injectable clock drives the expiry and straggler
// machinery deterministically — no wall-clock sleeps. The invariant
// every test circles back to: accepted completions tile the virtual
// span exactly once, whatever failed, expired, or was superseded on
// the way.
#include "src/core/workqueue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace setlib::core {
namespace {

using std::chrono::milliseconds;
using time_point = std::chrono::steady_clock::time_point;

/// Test options with a hand-cranked clock.
struct Fixture {
  time_point now{};  // epoch; advanced by hand
  WorkQueueOptions options;

  Fixture() {
    options.span = 64;
    options.ranges = 4;
    options.workers = 2;
    options.lease_timeout = milliseconds(1000);
    options.straggler_factor = 0.0;  // opt in per test
    options.straggler_min = milliseconds(1);
    options.clock = [this] { return now; };
  }
};

/// Sorted (lo, hi) list of the given leases.
std::vector<std::pair<std::size_t, std::size_t>> ranges_of(
    const std::vector<Lease>& leases) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (const Lease& lease : leases) out.emplace_back(lease.lo, lease.hi);
  std::sort(out.begin(), out.end());
  return out;
}

/// True when the sorted ranges tile [0, span) exactly.
bool tiles(const std::vector<std::pair<std::size_t, std::size_t>>& rs,
           std::size_t span) {
  std::size_t expect = 0;
  for (const auto& [lo, hi] : rs) {
    if (lo != expect || hi <= lo) return false;
    expect = hi;
  }
  return expect == span;
}

TEST(WorkQueueTest, InitialRangesTileTheSpanAndDrainLowFirst) {
  Fixture fx;
  WorkQueue queue(fx.options);
  std::vector<Lease> leases;
  for (int i = 0; i < 4; ++i) {
    auto lease = queue.acquire(0);
    ASSERT_TRUE(lease.has_value());
    // Low ranges lease first.
    if (!leases.empty()) {
      EXPECT_GT(lease->lo, leases.back().lo);
    }
    leases.push_back(*lease);
  }
  EXPECT_TRUE(tiles(ranges_of(leases), 64));
  for (const Lease& lease : leases) {
    EXPECT_TRUE(queue.complete(lease.id));
  }
  EXPECT_TRUE(queue.done());
  EXPECT_FALSE(queue.acquire(0).has_value());
  const WorkQueueReport report = queue.report();
  EXPECT_EQ(report.leases_issued, 4u);
  EXPECT_EQ(report.leases_completed, 4u);
  EXPECT_EQ(report.leases_resharded, 0u);
  EXPECT_TRUE(report.events.empty());
}

TEST(WorkQueueTest, AutoRangeCountScalesWithWorkersAndCapsAtSpan) {
  Fixture fx;
  fx.options.ranges = 0;
  fx.options.workers = 3;
  WorkQueue queue(fx.options);  // span 64 > 24 ranges
  EXPECT_EQ(queue.report().initial_ranges, 24u);

  Fixture tiny;
  tiny.options.span = 5;
  tiny.options.ranges = 0;
  WorkQueue small(tiny.options);
  EXPECT_EQ(small.report().initial_ranges, 5u);
}

TEST(WorkQueueTest, FailedLeaseIsSplitRequeuedAndBudgeted) {
  Fixture fx;
  fx.options.ranges = 1;  // one wide range so the split is visible
  WorkQueue queue(fx.options);
  auto lease = queue.acquire(0);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->lo, 0u);
  EXPECT_EQ(lease->hi, 64u);
  queue.fail(lease->id, "exit 137");

  // The range came back as two halves; completing them finishes.
  std::vector<Lease> halves;
  for (int i = 0; i < 2; ++i) {
    auto half = queue.acquire(1);
    ASSERT_TRUE(half.has_value());
    halves.push_back(*half);
  }
  EXPECT_TRUE(tiles(ranges_of(halves), 64));
  for (const Lease& half : halves) EXPECT_TRUE(queue.complete(half.id));
  EXPECT_TRUE(queue.done());

  const WorkQueueReport report = queue.report();
  EXPECT_EQ(report.leases_failed, 1u);
  EXPECT_EQ(report.leases_resharded, 1u);
  EXPECT_EQ(report.failures_spent, 1u);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].kind, LeaseEvent::Kind::kFailed);
  EXPECT_EQ(report.events[0].detail, "exit 137");
  EXPECT_TRUE(report.events[0].split);
}

TEST(WorkQueueTest, ExpiredLeaseIsRequeuedAndLateCompletionDiscarded) {
  Fixture fx;
  fx.options.ranges = 2;
  WorkQueue queue(fx.options);
  auto doomed = queue.acquire(0);
  ASSERT_TRUE(doomed.has_value());

  // Past the deadline, the next acquire sweeps the lease back in.
  fx.now += milliseconds(1500);
  std::vector<Lease> rest;
  for (;;) {
    auto lease = queue.acquire(1);
    ASSERT_TRUE(lease.has_value());
    rest.push_back(*lease);
    EXPECT_TRUE(queue.complete(lease->id));
    if (queue.done()) break;
  }
  // The dead worker's late result must not double-count its range.
  EXPECT_FALSE(queue.complete(doomed->id));

  const WorkQueueReport report = queue.report();
  EXPECT_EQ(report.leases_expired, 1u);
  EXPECT_GE(report.leases_resharded, 1u);
  EXPECT_EQ(report.completions_discarded, 1u);
  EXPECT_TRUE(queue.done());
}

TEST(WorkQueueTest, FailureBudgetExhaustionAborts) {
  Fixture fx;
  fx.options.ranges = 1;
  fx.options.failure_budget = 2;
  WorkQueue queue(fx.options);
  for (int i = 0; i < 3; ++i) {
    auto lease = queue.acquire(0);
    ASSERT_TRUE(lease.has_value()) << "failure " << i;
    queue.fail(lease->id, "exit 1");
  }
  EXPECT_TRUE(queue.aborted());
  EXPECT_FALSE(queue.done());
  EXPECT_FALSE(queue.acquire(0).has_value());
  const WorkQueueReport report = queue.report();
  EXPECT_EQ(report.failures_spent, 3u);
  EXPECT_NE(report.abort_reason.find("failure budget"),
            std::string::npos);
  EXPECT_NE(report.abort_reason.find("exit 1"), std::string::npos);
}

TEST(WorkQueueTest, StragglerIsSupersededOnlyWithBaselineAndIdleWorker) {
  Fixture fx;
  fx.options.ranges = 2;
  fx.options.straggler_factor = 2.0;
  fx.options.straggler_min = milliseconds(10);
  WorkQueue queue(fx.options);

  auto slow = queue.acquire(0);  // [0, 32)
  ASSERT_TRUE(slow.has_value());
  auto fast = queue.acquire(1);  // [32, 64)
  ASSERT_TRUE(fast.has_value());
  fx.now += milliseconds(20);
  EXPECT_TRUE(queue.complete(fast->id));  // baseline: 20 ms

  // Idle worker 1 asks again. The straggler is 20 ms old; the
  // threshold is max(10 ms, 2 x 20 ms) = 40 ms — not yet a straggler,
  // so worker 1 waits... until the lease ages past it.
  fx.now += milliseconds(50);  // age 70 ms > 40 ms
  auto replacement = queue.acquire(1);
  ASSERT_TRUE(replacement.has_value());
  EXPECT_EQ(replacement->lo, 0u);  // a half of the superseded range

  // The straggler's own completion is now worthless.
  EXPECT_FALSE(queue.complete(slow->id));

  std::vector<Lease> done{*replacement};
  EXPECT_TRUE(queue.complete(replacement->id));
  while (!queue.done()) {
    auto lease = queue.acquire(0);
    ASSERT_TRUE(lease.has_value());
    done.push_back(*lease);
    EXPECT_TRUE(queue.complete(lease->id));
  }

  const WorkQueueReport report = queue.report();
  EXPECT_EQ(report.leases_superseded, 1u);
  EXPECT_GE(report.leases_resharded, 1u);
  EXPECT_EQ(report.completions_discarded, 1u);
  // Supersession is not a failure: the budget is untouched.
  EXPECT_EQ(report.failures_spent, 0u);
  ASSERT_FALSE(report.events.empty());
  EXPECT_EQ(report.events[0].kind, LeaseEvent::Kind::kSuperseded);
}

TEST(WorkQueueTest, NoStragglerWithoutACompletedBaseline) {
  Fixture fx;
  fx.options.ranges = 1;
  fx.options.straggler_factor = 1.0;
  fx.options.straggler_min = milliseconds(1);
  fx.options.lease_timeout = milliseconds(60'000);
  WorkQueue queue(fx.options);
  auto lease = queue.acquire(0);
  ASSERT_TRUE(lease.has_value());
  fx.now += milliseconds(10'000);
  // Nothing has ever completed: "visibly lags" has no meaning, so the
  // only thing the queue may do here is keep waiting (bounded poll).
  // We can't call acquire (it would block), but completing still works
  // and proves the lease was not superseded meanwhile.
  EXPECT_TRUE(queue.complete(lease->id));
  EXPECT_TRUE(queue.done());
  EXPECT_EQ(queue.report().leases_superseded, 0u);
}

TEST(WorkQueueTest, WidthOneRangeRequeuesWithoutSplitting) {
  Fixture fx;
  fx.options.span = 1;
  fx.options.ranges = 1;
  WorkQueue queue(fx.options);
  auto lease = queue.acquire(0);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->width(), 1u);
  queue.fail(lease->id, "exit 1");
  auto retry = queue.acquire(0);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->lo, 0u);
  EXPECT_EQ(retry->hi, 1u);
  EXPECT_TRUE(queue.complete(retry->id));
  EXPECT_TRUE(queue.done());
  const WorkQueueReport report = queue.report();
  EXPECT_EQ(report.leases_resharded, 0u);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_FALSE(report.events[0].split);
}

TEST(WorkQueueTest, LeaseShardMatchesTheCellsFlagSemantics) {
  Lease lease;
  lease.lo = 16;
  lease.hi = 32;
  const ShardSpec spec = lease.shard(64);
  EXPECT_EQ(spec.to_string(), "16..32/64");
  // [total*lo/span, total*hi/span) of a 128-cell space.
  const auto [begin, end] = spec.range(128);
  EXPECT_EQ(begin, 32u);
  EXPECT_EQ(end, 64u);
  EXPECT_FALSE(spec.whole());
  Lease whole;
  whole.lo = 0;
  whole.hi = 64;
  EXPECT_TRUE(whole.shard(64).whole());
}

TEST(WorkQueueTest, ReportRendersItsAccountingAsJson) {
  Fixture fx;
  fx.options.ranges = 1;
  WorkQueue queue(fx.options);
  auto lease = queue.acquire(7);
  ASSERT_TRUE(lease.has_value());
  queue.fail(lease->id, "killed by signal 9");
  const JsonValue json = queue.report().to_json();
  EXPECT_EQ(json.at("span").as_int(), 64);
  EXPECT_EQ(json.at("leases_issued").as_int(), 1);
  EXPECT_EQ(json.at("leases_failed").as_int(), 1);
  EXPECT_EQ(json.at("leases_resharded").as_int(), 1);
  const auto& events = json.at("events").items();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("kind").as_string(), "failed");
  EXPECT_EQ(events[0].at("worker").as_int(), 7);
  EXPECT_EQ(events[0].at("detail").as_string(), "killed by signal 9");
}

}  // namespace
}  // namespace setlib::core
