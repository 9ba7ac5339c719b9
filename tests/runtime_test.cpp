// The threaded runtime: Pacer semantics, the ThreadedExecutor, the
// end-to-end threaded Theorem 24 stack, and the replay of its recorded
// linearization through the simulator.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>

#include "src/agreement/kset.h"
#include "src/fd/kantiomega.h"
#include "src/runtime/executor.h"
#include "src/runtime/pacer.h"
#include "src/runtime/rt_harness.h"
#include "src/sched/analyzer.h"
#include "src/sched/generators.h"
#include "src/shm/simulator.h"

namespace setlib::runtime {
namespace {

TEST(PacerTest, AllowsUpToBoundThenBlocks) {
  // Constraint: {0} timely w.r.t. {1} at bound 3. Thread for pid 1 can
  // take 2 steps, then must wait until pid 0 steps.
  Pacer pacer(2, {sched::TimelinessConstraint(ProcSet::of(0),
                                              ProcSet::of(1), 3)});
  EXPECT_TRUE(pacer.step(1, [] {}));
  EXPECT_TRUE(pacer.step(1, [] {}));
  std::atomic<bool> third_done{false};
  std::jthread q_thread([&] {
    EXPECT_TRUE(pacer.step(1, [] {}));  // blocks until pid 0 steps
    third_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(third_done.load());
  EXPECT_TRUE(pacer.step(0, [] {}));
  q_thread.join();
  EXPECT_TRUE(third_done.load());
  EXPECT_EQ(pacer.steps_taken(), 4);

  const sched::Schedule s = pacer.recorded_schedule();
  EXPECT_LE(sched::min_timeliness_bound(s, ProcSet::of(0), ProcSet::of(1)),
            3);
}

TEST(PacerTest, DeactivatingTimelySetDropsConstraint) {
  Pacer pacer(2, {sched::TimelinessConstraint(ProcSet::of(0),
                                              ProcSet::of(1), 2)});
  EXPECT_TRUE(pacer.step(1, [] {}));
  std::atomic<bool> second_done{false};
  std::jthread q_thread([&] {
    EXPECT_TRUE(pacer.step(1, [] {}));
    second_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_done.load());
  pacer.deactivate(0);  // P gone: constraint dropped, waiter released
  q_thread.join();
  EXPECT_TRUE(second_done.load());
  EXPECT_EQ(pacer.dropped_constraints(), 1);
}

TEST(PacerTest, RequestStopReleasesWaiters) {
  Pacer pacer(2, {sched::TimelinessConstraint(ProcSet::of(0),
                                              ProcSet::of(1), 1)});
  std::atomic<bool> returned_false{false};
  std::jthread q_thread([&] {
    // bound 1: pid 1 (in Q \ P) can never step before pid 0.
    if (!pacer.step(1, [] {})) returned_false.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pacer.request_stop();
  q_thread.join();
  EXPECT_TRUE(returned_false.load());
  EXPECT_TRUE(pacer.stopped());
}

TEST(RtHarnessTest, ConsensusOnThreads) {
  RtRunConfig cfg;
  cfg.n = 4;
  cfg.k = 1;
  cfg.t = 2;
  const auto report = run_kset_threaded(cfg);
  EXPECT_TRUE(report.success) << report.detail;
  EXPECT_EQ(report.distinct_decisions, 1);
  EXPECT_LE(report.witness_bound, cfg.bound);
  EXPECT_EQ(report.dropped_constraints, 0);
}

TEST(RtHarnessTest, KSetWithCrashes) {
  RtRunConfig cfg;
  cfg.n = 5;
  cfg.k = 2;
  cfg.t = 2;
  cfg.crash_count = 2;
  cfg.crash_ops = 1'000;
  const auto report = run_kset_threaded(cfg);
  EXPECT_TRUE(report.success) << report.detail;
  EXPECT_EQ(report.faulty.size(), 2);
  EXPECT_LE(report.distinct_decisions, 2);
}

TEST(RtHarnessTest, CrashesNeverRaceDecisionTime) {
  // Regression for the KSetWithCrashes flake: the run used to end as
  // soon as every process decided, so whether a crash_ops=1000 crash
  // ever fired depended on how far the OS had let that thread run —
  // frequent failures under ASan on many-core boxes. The executor now
  // refuses to settle while a crash is pending, so the faulty set is
  // exactly the configured one on every run.
  for (int round = 0; round < 5; ++round) {
    RtRunConfig cfg;
    cfg.n = 5;
    cfg.k = 2;
    cfg.t = 2;
    cfg.crash_count = 2;
    cfg.crash_ops = 1'000;
    const auto report = run_kset_threaded(cfg);
    EXPECT_TRUE(report.success) << "round " << round << ": "
                                << report.detail;
    EXPECT_EQ(report.faulty, ProcSet::of({3, 4})) << "round " << round;
  }
}

TEST(RtHarnessTest, CrashedTimelySetReportsOnlyPacedStats) {
  // The whole pacer timely set ({0}, k = 1) crashes before taking a
  // single step: the constraint is dropped at (or within bound - 1
  // steps of) serialized step 0 and the rest of the run is unpaced.
  // pacer_steps and witness_bound must describe only the paced prefix
  // — not the thousands of unpaced steps the survivors go on to take.
  RtRunConfig cfg;
  cfg.n = 3;
  cfg.k = 1;
  cfg.t = 2;
  cfg.crashes = {{0, 0}};  // pid 0 never reaches the pacer
  cfg.max_ops_per_process = 4'000;
  cfg.max_wall = std::chrono::milliseconds(5'000);
  const auto report = run_kset_threaded(cfg);
  EXPECT_EQ(report.faulty, ProcSet::of(0));
  EXPECT_EQ(report.dropped_constraints, 1);
  // Before the drop at most bound - 1 = 3 observed steps can pass.
  EXPECT_LE(report.pacer_steps, cfg.bound - 1);
  EXPECT_LE(report.witness_bound, cfg.bound);
}

TEST(RtHarnessTest, ImmediateCrashesStillTerminate) {
  RtRunConfig cfg;
  cfg.n = 4;
  cfg.k = 2;
  cfg.t = 2;
  cfg.crash_count = 2;
  cfg.crash_ops = 0;  // crash before taking any step
  const auto report = run_kset_threaded(cfg);
  EXPECT_TRUE(report.success) << report.detail;
}

class RtSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RtSweep, ThreadedStackSolves) {
  const auto [n, k, t] = GetParam();
  RtRunConfig cfg;
  cfg.n = n;
  cfg.k = k;
  cfg.t = t;
  cfg.crash_count = t >= 2 ? 1 : 0;
  cfg.crash_ops = 3'000;
  const auto report = run_kset_threaded(cfg);
  EXPECT_TRUE(report.success)
      << "n=" << n << " k=" << k << " t=" << t << " :: " << report.detail;
  EXPECT_LE(report.distinct_decisions, k);
}

INSTANTIATE_TEST_SUITE_P(Grid, RtSweep,
                         ::testing::Values(std::tuple{3, 1, 1},
                                           std::tuple{4, 1, 2},
                                           std::tuple{4, 2, 2},
                                           std::tuple{5, 2, 3},
                                           std::tuple{6, 3, 3}));

// One bench_runtime_threads row: (t, k, n) and its tail crashes, each
// after 2,000 operations.
struct RtRow {
  int t;
  int k;
  int n;
  int crashes;
};

void PrintTo(const RtRow& row, std::ostream* os) {
  *os << "(" << row.t << "," << row.k << "," << row.n << ") crashes "
      << row.crashes;
}

// Replays `report`'s recorded schedule through shm::Simulator on the
// stack run_kset_threaded builds, from the same proposals. Returns the
// first difference from the threaded run's end state, or "" if the
// simulator reached the same decisions, detector iterations, register
// contents and read/write counts.
std::string replay_difference(const RtRunConfig& cfg,
                              const RtRunReport& report) {
  const int n = cfg.n;
  shm::SimMemory mem;
  fd::KAntiOmega detector(mem,
                          fd::KAntiOmega::Params{n, cfg.k, cfg.t, 1});
  agreement::KSetAgreement kset(
      mem, agreement::KSetAgreement::Params{n, cfg.k, cfg.t}, &detector);
  shm::Simulator sim(mem, n);
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(detector.run(p), "kanti-omega");
    kset.install(sim.process(p), p, 100 + p);
  }
  sched::ReplayGenerator replay(report.schedule);
  const std::int64_t steps = report.schedule.size();
  std::ostringstream diff;
  if (sim.run(replay, steps) != steps) diff << "replay stopped early; ";
  for (Pid p = 0; p < n; ++p) {
    const auto at = static_cast<std::size_t>(p);
    const std::optional<std::int64_t> decision =
        kset.decided(p) ? std::optional(kset.outcome(p).value)
                        : std::nullopt;
    if (decision != report.decisions[at]) {
      diff << "p" << p << " decision; ";
    }
    if (detector.view(p).iterations != report.detector_iterations[at]) {
      diff << "p" << p << " detector iterations "
           << detector.view(p).iterations << " vs "
           << report.detector_iterations[at] << "; ";
    }
  }
  if (mem.register_count() != report.memory.register_count()) {
    diff << "register count; ";
  } else {
    for (shm::RegisterId r = 0; r < mem.register_count(); ++r) {
      if (!(mem.peek(r) == report.memory.peek(r))) {
        diff << "register " << mem.name(r) << "; ";
        break;
      }
    }
  }
  if (mem.read_count() != report.memory.read_count() ||
      mem.write_count() != report.memory.write_count()) {
    diff << "read/write counts; ";
  }
  return diff.str();
}

class RtReplayTest : public ::testing::TestWithParam<RtRow> {};

// The differential between the two runtimes: the threaded run's
// recorded schedule is the linearization of its register operations,
// so the simulator, fed that schedule, must end where the threads did.
TEST_P(RtReplayTest, RecordedScheduleReplaysInTheSimulator) {
  const RtRow row = GetParam();
  constexpr int kRounds = 20;
  int divergent = 0;
  std::string first;
  for (int round = 0; round < kRounds; ++round) {
    RtRunConfig cfg;
    cfg.n = row.n;
    cfg.k = row.k;
    cfg.t = row.t;
    cfg.crash_count = row.crashes;
    cfg.crash_ops = 2'000;
    const RtRunReport report = run_kset_threaded(cfg);
    EXPECT_TRUE(report.success) << "round " << round << ": "
                                << report.detail;
    ASSERT_GE(report.schedule.size(), report.pacer_steps);
    const std::string diff = replay_difference(cfg, report);
    if (diff.empty()) continue;
    if (divergent++ == 0) first = "round " + std::to_string(round) + ": " + diff;
  }
  EXPECT_EQ(divergent, 0) << "of " << kRounds << " rounds; first " << first;
}

INSTANTIATE_TEST_SUITE_P(Rows, RtReplayTest,
                         ::testing::Values(RtRow{1, 1, 3, 0},
                                           RtRow{2, 1, 4, 1},
                                           RtRow{2, 2, 5, 2},
                                           RtRow{3, 2, 6, 2},
                                           RtRow{3, 3, 6, 3},
                                           RtRow{4, 2, 8, 3}));

}  // namespace
}  // namespace setlib::runtime
