// Safe agreement and the BG simulation substrate: agreement/validity,
// unsafe-zone blocking (the defining trade-off), simulation determinism
// across simulators, and the Theorem 26 schedule-mapping properties
// (i) at most m-1 simulated crashes and (ii) the simulated schedule's
// timeliness shape.
#include <gtest/gtest.h>

#include <memory>

#include "src/bg/bg_sim.h"
#include "src/bg/safe_agreement.h"
#include "src/bg/threads.h"
#include "src/sched/analyzer.h"
#include "src/sched/generators.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"

namespace setlib::bg {
namespace {

// Drive propose-then-resolve as a single task per participant.
shm::Prog propose_and_resolve(SafeAgreement* sa, Pid i, std::int64_t v,
                              SafeAgreement::Outcome* out) {
  co_await sa->propose(i, shm::Value::of(v));
  for (;;) {
    bool blocked = false;
    co_await sa->try_resolve(i, out, &blocked);
    if (out->decided) co_return;
  }
}

TEST(SafeAgreementTest, SoloProposerDecidesOwnValue) {
  shm::SimMemory mem;
  SafeAgreement sa(mem, 3, "sa");
  SafeAgreement::Outcome out;
  shm::Simulator sim(mem, 3);
  sim.process(0).add_task(propose_and_resolve(&sa, 0, 42, &out), "sa");
  sched::RoundRobinGenerator gen(3);
  sim.run(gen, 1'000);
  ASSERT_TRUE(out.decided);
  EXPECT_EQ(out.value, shm::Value::of(42));
}

class SafeAgreementSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SafeAgreementSweep, AgreementAndValidityUnderRandomSchedules) {
  const int m = 4;
  shm::SimMemory mem;
  SafeAgreement sa(mem, m, "sa");
  std::vector<SafeAgreement::Outcome> outs(m);
  shm::Simulator sim(mem, m);
  for (Pid i = 0; i < m; ++i) {
    sim.process(i).add_task(propose_and_resolve(&sa, i, 10 + i, &outs[i]),
                            "sa");
  }
  sched::UniformRandomGenerator gen(m, GetParam());
  sim.run(gen, 100'000);
  for (Pid i = 0; i < m; ++i) {
    ASSERT_TRUE(outs[i].decided) << "participant " << i;
    EXPECT_EQ(outs[i].value, outs[0].value);
    const std::int64_t v = outs[i].value.at(0);
    EXPECT_GE(v, 10);
    EXPECT_LT(v, 10 + m);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SafeAgreementSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(SafeAgreementTest, CrashInUnsafeZoneBlocksResolution) {
  const int m = 3;
  shm::SimMemory mem;
  SafeAgreement sa(mem, m, "sa");
  std::vector<SafeAgreement::Outcome> outs(m);
  shm::Simulator sim(mem, m);
  for (Pid i = 0; i < m; ++i) {
    sim.process(i).add_task(propose_and_resolve(&sa, i, 10 + i, &outs[i]),
                            "sa");
  }
  // Participant 0's first step is the level-1 write; crash right after:
  // it stays in the unsafe zone forever.
  sim.use_crash_plan(sched::CrashPlan::at(m, ProcSet::of(0), 1));
  sched::RoundRobinGenerator gen(m);
  sim.run(gen, 60'000);
  EXPECT_FALSE(outs[1].decided);
  EXPECT_FALSE(outs[2].decided);
}

TEST(SafeAgreementTest, CrashOutsideUnsafeZoneHarmless) {
  const int m = 3;
  shm::SimMemory mem;
  SafeAgreement sa(mem, m, "sa");
  std::vector<SafeAgreement::Outcome> outs(m);
  shm::Simulator sim(mem, m);
  for (Pid i = 0; i < m; ++i) {
    sim.process(i).add_task(propose_and_resolve(&sa, i, 10 + i, &outs[i]),
                            "sa");
  }
  // Let participant 0 fully finish its propose (enter AND leave the
  // unsafe zone) before crashing it.
  for (int s = 0; s < 2 + 2 * 2 * m + 10; ++s) sim.step_once(0);
  sim.crash(0);
  sched::RoundRobinGenerator gen(m);
  sim.run(gen, 60'000);
  EXPECT_TRUE(outs[1].decided);
  EXPECT_TRUE(outs[2].decided);
  EXPECT_EQ(outs[1].value, outs[2].value);
}

struct BgRig {
  shm::SimMemory mem;
  std::unique_ptr<BGSimulation> bg;
  std::unique_ptr<shm::Simulator> sim;

  BgRig(int m, int n, int horizon, ThreadFactory factory) {
    bg = std::make_unique<BGSimulation>(
        mem, BGSimulation::Params{m, n, horizon}, std::move(factory));
    sim = std::make_unique<shm::Simulator>(mem, m);
    for (Pid i = 0; i < m; ++i) {
      sim->process(i).add_task(bg->run(i), "bg");
    }
  }
};

TEST(BGSimulationTest, AllThreadsCompleteWithoutCrashes) {
  const int m = 3, n = 5, horizon = 6;
  BgRig rig(m, n, horizon, [](int u) {
    return std::make_unique<MinInputThread>(100 + u, 4);
  });
  sched::RoundRobinGenerator gen(m);
  rig.sim->run_until(gen, 3'000'000, [&] {
    for (int s = 0; s < m; ++s) {
      for (int u = 0; u < n; ++u) {
        if (!rig.bg->thread_decision(s, u).has_value()) return false;
      }
    }
    return true;
  });
  // Determinism across simulators: every simulator computed the same
  // decision for every thread.
  for (int u = 0; u < n; ++u) {
    const auto d0 = rig.bg->thread_decision(0, u);
    ASSERT_TRUE(d0.has_value()) << "thread " << u;
    for (int s = 1; s < m; ++s) {
      const auto ds = rig.bg->thread_decision(s, u);
      ASSERT_TRUE(ds.has_value()) << "sim " << s << " thread " << u;
      EXPECT_EQ(*ds, *d0);
    }
    // Validity: a MinInputThread decision is one of the inputs.
    EXPECT_GE(*d0, 100);
    EXPECT_LT(*d0, 100 + n);
  }
  EXPECT_EQ(rig.bg->blocked_threads(), ProcSet());
}

TEST(BGSimulationTest, PropertyOneCrashBlocksAtMostOneThread) {
  const int m = 3, n = 4, horizon = 32;
  BgRig rig(m, n, horizon, [](int u) {
    return std::make_unique<ForeverThread>(10 * u);
  });
  // Crash simulator 2 early, with decent odds of being mid-unsafe-zone.
  rig.sim->use_crash_plan(sched::CrashPlan::at(m, ProcSet::of(2), 57));
  sched::RoundRobinGenerator gen(m);
  rig.sim->run(gen, 1'500'000);
  // At most one simulated thread is blocked (m - 1 = 2 crashes allowed
  // by BG, but one crashed simulator occupies at most one unsafe zone).
  EXPECT_LE(rig.bg->blocked_threads().size(), 1);
  // The other threads made progress from every live simulator's view.
  for (int u = 0; u < n; ++u) {
    if (rig.bg->blocked_threads().contains(u)) continue;
    EXPECT_GT(rig.bg->steps_of(0, u), 3) << "thread " << u;
  }
}

TEST(BGSimulationTest, PropertyTwoSimulatedScheduleShape) {
  // With m simulators round-robin over n forever-threads and no
  // crashes, the simulated schedule keeps every thread timely: in
  // particular every (m)-subset — and a fortiori every (k+1)-subset
  // for k + 1 <= m — is timely w.r.t. the set of all n threads.
  const int m = 3, n = 5, horizon = 64;
  BgRig rig(m, n, horizon, [](int u) {
    return std::make_unique<ForeverThread>(u);
  });
  sched::RoundRobinGenerator gen(m);
  rig.sim->run(gen, 2'000'000);
  const sched::Schedule& simulated = rig.bg->simulated_schedule();
  ASSERT_GT(simulated.size(), 5 * n);
  for (const ProcSet s : k_subsets(n, m)) {
    EXPECT_LE(sched::min_timeliness_bound(simulated, s,
                                          ProcSet::universe(n)),
              2 * n)
        << s.to_string();
  }
  // Each thread appears with near-equal frequency (round-robin shape).
  for (int u = 0; u < n; ++u) {
    EXPECT_NEAR(static_cast<double>(simulated.count(u)),
                static_cast<double>(simulated.size()) / n,
                static_cast<double>(simulated.size()) / n * 0.25);
  }
}

TEST(BGSimulationTest, DecisionsValidWithSimulatorCrash) {
  const int m = 3, n = 4, horizon = 8;
  BgRig rig(m, n, horizon, [](int u) {
    return std::make_unique<MinInputThread>(7 * (u + 1), 5);
  });
  rig.sim->use_crash_plan(sched::CrashPlan::at(m, ProcSet::of(1), 95));
  sched::RoundRobinGenerator gen(m);
  rig.sim->run(gen, 2'000'000);
  // Live simulators agree on every thread decision they both computed.
  for (int u = 0; u < n; ++u) {
    const auto d0 = rig.bg->thread_decision(0, u);
    const auto d2 = rig.bg->thread_decision(2, u);
    if (d0.has_value() && d2.has_value()) {
      EXPECT_EQ(*d0, *d2) << "thread " << u;
    }
    if (d0.has_value()) {
      EXPECT_EQ(*d0 % 7, 0) << "validity: decision is some input";
    }
  }
}

}  // namespace
}  // namespace setlib::bg
