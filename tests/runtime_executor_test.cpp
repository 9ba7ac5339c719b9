// ThreadedExecutor edge cases: crash boundaries, op budgets, wall-clock
// expiry, halted processes, and the pacer's schedule recording under
// concurrency.
#include <gtest/gtest.h>

#include <atomic>

#include "src/runtime/executor.h"
#include "src/runtime/pacer.h"
#include "src/sched/analyzer.h"
#include "src/shm/memory.h"
#include "src/shm/program.h"

namespace setlib::runtime {
namespace {

shm::Prog spin(shm::RegisterId reg) {
  for (std::int64_t v = 1;; ++v) {
    co_await shm::write(reg, shm::Value::of(v));
  }
}

shm::Prog finite(shm::RegisterId reg, int ops) {
  for (int i = 0; i < ops; ++i) {
    co_await shm::write(reg, shm::Value::of(i + 1));
  }
}

TEST(ExecutorTest, WallClockExpiryEndsRun) {
  shm::SimMemory mem;
  const auto r0 = mem.alloc("r0");
  const auto r1 = mem.alloc("r1");
  ThreadedExecutor exec(mem, 2);
  exec.process(0).add_task(spin(r0), "spin");
  exec.process(1).add_task(spin(r1), "spin");
  Pacer pacer(2, {});
  ThreadedExecutor::Options options;
  options.max_wall = std::chrono::milliseconds(50);
  const auto stats = exec.run(pacer, options);
  EXPECT_TRUE(stats.wall_expired);
  EXPECT_FALSE(stats.all_done);
  EXPECT_GT(stats.total_ops, 0);
}

TEST(ExecutorTest, CrashAfterZeroOpsMeansNoSteps) {
  shm::SimMemory mem;
  const auto r0 = mem.alloc("r0");
  const auto r1 = mem.alloc("r1");
  ThreadedExecutor exec(mem, 2);
  exec.process(0).add_task(finite(r0, 5), "fin");
  exec.process(1).add_task(spin(r1), "spin");
  exec.crash_after(1, 0);
  Pacer pacer(2, {});
  ThreadedExecutor::Options options;
  options.max_wall = std::chrono::milliseconds(2'000);
  const auto stats = exec.run(pacer, options);
  EXPECT_TRUE(stats.all_done);  // process 0 halted; 1 crashed
  EXPECT_EQ(exec.crashed(), ProcSet::of(1));
  EXPECT_TRUE(mem.read(r1).is_nil());  // 1 never wrote
  // The recorded schedule contains no step of process 1.
  EXPECT_EQ(pacer.recorded_schedule().count(1), 0);
}

TEST(ExecutorTest, HaltedProcessCountsAsDone) {
  shm::SimMemory mem;
  const auto r = mem.alloc("r");
  ThreadedExecutor exec(mem, 1);
  exec.process(0).add_task(finite(r, 10), "fin");
  Pacer pacer(1, {});
  ThreadedExecutor::Options options;
  options.max_wall = std::chrono::milliseconds(2'000);
  const auto stats = exec.run(pacer, options);
  EXPECT_TRUE(stats.all_done);
  EXPECT_EQ(mem.read(r).as_int_or(0), 10);
}

TEST(ExecutorTest, LocalDonePredicateEvaluatedByOwnThread) {
  shm::SimMemory mem;
  const auto r0 = mem.alloc("r0");
  const auto r1 = mem.alloc("r1");
  ThreadedExecutor exec(mem, 2);
  exec.process(0).add_task(spin(r0), "spin");
  exec.process(1).add_task(spin(r1), "spin");
  std::atomic<int> calls{0};
  Pacer pacer(2, {});
  ThreadedExecutor::Options options;
  options.max_wall = std::chrono::milliseconds(3'000);
  options.local_done = [&](Pid p) {
    calls.fetch_add(1);
    (void)p;
    return true;  // everyone is immediately "done"
  };
  const auto stats = exec.run(pacer, options);
  EXPECT_TRUE(stats.all_done);
  EXPECT_FALSE(stats.wall_expired);
  EXPECT_GE(calls.load(), 2);
}

TEST(ExecutorTest, MaxOpsExitEndsRunWithoutWaitingForMaxWall) {
  // Regression: a process that leaves its loop via the op budget is
  // neither done nor crashed, and the monitor used to spin until
  // max_wall (10 s default) even though every thread had returned.
  // With exited-thread tracking the run must end in milliseconds.
  shm::SimMemory mem;
  const auto r0 = mem.alloc("r0");
  const auto r1 = mem.alloc("r1");
  ThreadedExecutor exec(mem, 2);
  exec.process(0).add_task(spin(r0), "spin");
  exec.process(1).add_task(spin(r1), "spin");
  Pacer pacer(2, {});
  ThreadedExecutor::Options options;
  options.max_ops_per_process = 200;
  options.max_wall = std::chrono::milliseconds(10'000);
  const auto stats = exec.run(pacer, options);
  EXPECT_FALSE(stats.all_done);  // budget exit is not "done"
  EXPECT_FALSE(stats.wall_expired);
  EXPECT_EQ(stats.total_ops, 400);
  // Well under max_wall: milliseconds, not 10 s (generous CI margin).
  EXPECT_LT(stats.elapsed, std::chrono::milliseconds(2'000));
}

TEST(ExecutorTest, MaxOpsBudgetStopsThreads) {
  shm::SimMemory mem;
  const auto r = mem.alloc("r");
  ThreadedExecutor exec(mem, 1);
  exec.process(0).add_task(spin(r), "spin");
  Pacer pacer(1, {});
  ThreadedExecutor::Options options;
  options.max_ops_per_process = 1'000;
  options.max_wall = std::chrono::milliseconds(5'000);
  const auto stats = exec.run(pacer, options);
  EXPECT_LE(stats.total_ops, 1'000);
  EXPECT_EQ(mem.read(r).as_int_or(0), 1'000);
}

TEST(ExecutorTest, PendingCrashKeepsTheRunAliveUntilItFires) {
  // Everyone reports done immediately, but process 1 has a crash
  // scheduled after 500 ops. The old monitor would end the run at the
  // first poll (all done), racing the crash out of existence; now the
  // run must not settle until the crash has fired.
  shm::SimMemory mem;
  const auto r0 = mem.alloc("r0");
  const auto r1 = mem.alloc("r1");
  ThreadedExecutor exec(mem, 2);
  exec.process(0).add_task(spin(r0), "spin");
  exec.process(1).add_task(spin(r1), "spin");
  exec.crash_after(1, 500);
  Pacer pacer(2, {});
  ThreadedExecutor::Options options;
  options.max_wall = std::chrono::milliseconds(5'000);
  options.local_done = [](Pid) { return true; };
  const auto stats = exec.run(pacer, options);
  EXPECT_TRUE(stats.all_done);
  EXPECT_FALSE(stats.wall_expired);
  EXPECT_EQ(exec.crashed(), ProcSet::of(1));
  // The crash fired after exactly 500 ops of process 1.
  EXPECT_EQ(pacer.recorded_schedule().count(1), 500);
}

TEST(ExecutorTest, PacerScheduleSatisfiesConstraintUnderThreads) {
  // Two spinning threads under a tight constraint: the recorded
  // schedule must satisfy it even though the OS interleaving is wild.
  shm::SimMemory mem;
  const auto r0 = mem.alloc("r0");
  const auto r1 = mem.alloc("r1");
  ThreadedExecutor exec(mem, 2);
  exec.process(0).add_task(spin(r0), "spin");
  exec.process(1).add_task(spin(r1), "spin");
  Pacer pacer(2,
              {sched::TimelinessConstraint(ProcSet::of(0), ProcSet::of(1),
                                           2)});
  ThreadedExecutor::Options options;
  options.max_wall = std::chrono::milliseconds(80);
  exec.run(pacer, options);
  const auto schedule = pacer.recorded_schedule();
  ASSERT_GT(schedule.size(), 100);
  EXPECT_LE(sched::min_timeliness_bound(schedule, ProcSet::of(0),
                                        ProcSet::of(1)),
            2);
}

}  // namespace
}  // namespace setlib::runtime
