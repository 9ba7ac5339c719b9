// Tests for the Figure 2 algorithm: structural checks, the lemma-level
// behaviours of the proof (counter freezing/divergence), and the
// detector property across a (n, k, t) x seed sweep.
#include "src/fd/kantiomega.h"

#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "src/fd/property.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"
#include "src/util/assert.h"

namespace setlib::fd {
namespace {

struct Rig {
  shm::SimMemory mem;
  std::unique_ptr<shm::Simulator> sim;
  std::unique_ptr<KAntiOmega> detector;

  Rig(int n, int k, int t) {
    detector = std::make_unique<KAntiOmega>(
        mem, KAntiOmega::Params{n, k, t, 1});
    sim = std::make_unique<shm::Simulator>(mem, n);
    for (Pid p = 0; p < n; ++p) {
      sim->process(p).add_task(detector->run(p), "fd");
    }
  }
};

TEST(KAntiOmegaTest, ValidatesParams) {
  shm::SimMemory mem;
  EXPECT_THROW(KAntiOmega(mem, {4, 0, 2, 1}), ContractViolation);
  EXPECT_THROW(KAntiOmega(mem, {4, 4, 2, 1}), ContractViolation);
  EXPECT_THROW(KAntiOmega(mem, {4, 2, 0, 1}), ContractViolation);
  EXPECT_THROW(KAntiOmega(mem, {4, 2, 4, 1}), ContractViolation);
  EXPECT_THROW(KAntiOmega(mem, {1, 1, 1, 1}), ContractViolation);
}

TEST(KAntiOmegaTest, RegisterLayout) {
  shm::SimMemory mem;
  KAntiOmega det(mem, {4, 2, 2, 1});
  // Heartbeat[4] + Counter[C(4,2)=6][4] = 4 + 24 registers.
  EXPECT_EQ(mem.register_count(), 4 + 6 * 4);
  EXPECT_EQ(mem.name(det.heartbeat_reg(0)), "Heartbeat[0]");
  EXPECT_EQ(det.counter_reg(1, 0), det.counter_reg(0, 0) + 4);
}

TEST(KAntiOmegaTest, OutputSizesAlwaysValid) {
  Rig rig(5, 2, 3);
  sched::RoundRobinGenerator gen(5);
  rig.sim->run(gen, 20'000);
  for (Pid p = 0; p < 5; ++p) {
    EXPECT_EQ(rig.detector->view(p).winnerset.size(), 2);
    EXPECT_EQ(rig.detector->view(p).fd_output.size(), 3);
    EXPECT_EQ(rig.detector->view(p).winnerset &
                  rig.detector->view(p).fd_output,
              ProcSet());
  }
}

TEST(KAntiOmegaTest, StabilizesUnderRoundRobin) {
  Rig rig(4, 1, 2);
  sched::RoundRobinGenerator gen(4);
  const ProcSet all = ProcSet::universe(4);
  rig.sim->run_until(gen, 500'000,
                     [&] { return rig.detector->stabilized(all, 8); });
  EXPECT_TRUE(rig.detector->stabilized(all, 8));
  const auto check = check_kantiomega(*rig.detector, all, 8);
  EXPECT_TRUE(check.ok) << check.detail;
  EXPECT_TRUE(check.abstract_ok);
  EXPECT_EQ(check.detail,
            "sizes=ok stabilized=yes trusted={0} abstract=ok winnerset={0} "
            "correct_winner=yes");
}

TEST(KAntiOmegaTest, CrashedWinnersetIsAbandoned) {
  // Crash processes 0..k-1 (the initial rank-0 winnerset). Lemma 12/17:
  // its counters diverge, so the winnerset must move to live processes.
  const int n = 5, k = 2, t = 2;
  Rig rig(n, k, t);
  rig.sim->use_crash_plan(
      sched::CrashPlan::at(n, ProcSet::range(0, k), 0));
  sched::RoundRobinGenerator gen(n);
  const ProcSet correct = ProcSet::range(k, n);
  rig.sim->run_until(gen, 800'000,
                     [&] { return rig.detector->stabilized(correct, 8); });
  const auto check = check_kantiomega(*rig.detector, correct, 8);
  ASSERT_TRUE(check.stabilized) << check.detail;
  // Lemma 20 guarantees a correct member, not a fully-live winnerset: a
  // set mixing one crashed and one live process freezes too (the live
  // member's heartbeats reset its timers everywhere).
  EXPECT_TRUE(check.has_correct_winner) << check.detail;
  // The fully-crashed rank-0 set {0,1} must have been abandoned.
  EXPECT_NE(check.winnerset, ProcSet::range(0, k)) << check.detail;
  EXPECT_EQ(check.detail,
            "sizes=ok stabilized=yes trusted={0,2} abstract=ok "
            "winnerset={0,2} correct_winner=yes");
}

TEST(KAntiOmegaTest, Lemma12CrashedSetCountersDiverge) {
  // If every process of a set A crashes, every correct process's
  // Counter[A, b] grows without bound.
  const int n = 4, k = 1, t = 2;
  Rig rig(n, k, t);
  rig.sim->use_crash_plan(sched::CrashPlan::at(n, ProcSet::of(3), 0));
  sched::RoundRobinGenerator gen(n);

  const std::int64_t rank3 = rig.detector->ranker().rank(ProcSet::of(3));
  rig.sim->run(gen, 100'000);
  std::vector<std::int64_t> mid;
  for (Pid b = 0; b < 3; ++b) {
    mid.push_back(rig.mem.peek(rig.detector->counter_reg(rank3, b))
                      .as_int_or(0));
  }
  rig.sim->run(gen, 400'000);
  for (Pid b = 0; b < 3; ++b) {
    const auto now =
        rig.mem.peek(rig.detector->counter_reg(rank3, b)).as_int_or(0);
    EXPECT_GT(now, mid[static_cast<std::size_t>(b)]) << "accuser " << b;
  }
}

TEST(KAntiOmegaTest, Lemma11TimelySetCountersFreeze) {
  // Under round-robin everyone is timely: after the adaptive timeouts
  // settle, counters stop changing (compare two late snapshots).
  const int n = 4, k = 2, t = 2;
  Rig rig(n, k, t);
  sched::RoundRobinGenerator gen(n);
  rig.sim->run(gen, 400'000);
  std::vector<std::int64_t> snap;
  const std::int64_t sets = rig.detector->ranker().count();
  for (std::int64_t a = 0; a < sets; ++a) {
    for (Pid q = 0; q < n; ++q) {
      snap.push_back(
          rig.mem.peek(rig.detector->counter_reg(a, q)).as_int_or(0));
    }
  }
  rig.sim->run(gen, 400'000);
  std::size_t idx = 0;
  for (std::int64_t a = 0; a < sets; ++a) {
    for (Pid q = 0; q < n; ++q, ++idx) {
      EXPECT_EQ(
          rig.mem.peek(rig.detector->counter_reg(a, q)).as_int_or(0),
          snap[idx])
          << "Counter[" << a << "," << q << "] kept growing";
    }
  }
}

TEST(KAntiOmegaTest, HeartbeatsAreMonotone) {
  Rig rig(3, 1, 1);
  sched::RoundRobinGenerator gen(3);
  std::int64_t prev = 0;
  for (int rounds = 0; rounds < 50; ++rounds) {
    rig.sim->run(gen, 3'000);
    const auto hb = rig.mem.peek(rig.detector->heartbeat_reg(0)).as_int_or(0);
    EXPECT_GE(hb, prev);
    prev = hb;
  }
  EXPECT_GT(prev, 0);
}

TEST(KAntiOmegaTest, TrustedCandidatesSubsetOfWinnerset) {
  Rig rig(4, 2, 2);
  sched::RoundRobinGenerator gen(4);
  const ProcSet all = ProcSet::universe(4);
  rig.sim->run_until(gen, 500'000,
                     [&] { return rig.detector->stabilized(all, 6); });
  ASSERT_TRUE(rig.detector->stabilized(all, 6));
  const ProcSet trusted = rig.detector->trusted_candidates(all, 6);
  EXPECT_EQ(trusted, rig.detector->common_winnerset(all));
}

struct SweepParams {
  int n;
  int k;
  int t;
  int crashes;
  std::uint64_t seed;
};

// gtest prints GetParam() with PrintTo, and gtest_discover_tests names
// each ctest case by that printout: without it, the case name is a raw
// byte dump of the struct (padding bytes included).
void PrintTo(const SweepParams& p, std::ostream* os) {
  *os << "n" << p.n << "_k" << p.k << "_t" << p.t << "_crashes" << p.crashes
      << "_seed" << p.seed;
}

class KAntiOmegaSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(KAntiOmegaSweep, PropertyHoldsInMatchingSystem) {
  const auto [n, k, t, crashes, seed] = GetParam();
  ASSERT_LE(crashes, t);
  shm::SimMemory mem;
  KAntiOmega detector(mem, KAntiOmega::Params{n, k, t, 1});
  shm::Simulator sim(mem, n);
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(detector.run(p), "fd");
  }
  // Crash the tail mid-run; enforce P = first k timely w.r.t. Q =
  // first t+1 at bound 3 over uniform noise: a schedule of S^k_{t+1,n}.
  const sched::CrashPlan plan =
      crashes > 0
          ? sched::CrashPlan::at(n, ProcSet::range(n - crashes, n), 50'000)
          : sched::CrashPlan::none(n);
  sim.use_crash_plan(plan);
  auto base = std::make_unique<sched::UniformRandomGenerator>(n, seed);
  std::vector<sched::TimelinessConstraint> constraints{
      sched::TimelinessConstraint(ProcSet::range(0, k),
                                  ProcSet::range(0, std::min(t + 1, n)),
                                  3)};
  sched::EnforcedGenerator gen(std::move(base), std::move(constraints),
                               plan);
  const ProcSet correct = plan.faulty().complement(n);
  sim.run_until(gen, 1'500'000,
                [&] { return detector.stabilized(correct, 6); });
  const auto check = check_kantiomega(detector, correct, 6);
  EXPECT_TRUE(check.ok) << "n=" << n << " k=" << k << " t=" << t
                        << " crashes=" << crashes << " seed=" << seed
                        << " :: " << check.detail;
}

// k = n - 1 is anti-Omega (the paper's footnote 2): every correct
// process eventually outputs the same single process, the one outside
// the stabilized winnerset.
TEST(AntiOmegaTest, OutputsSingleExcludedProcess) {
  const int n = 4;
  shm::SimMemory mem;
  KAntiOmega det(mem, {n, n - 1, n - 1, 1});
  shm::Simulator sim(mem, n);
  for (Pid p = 0; p < n; ++p) sim.process(p).add_task(det.run(p), "fd");
  sched::RoundRobinGenerator gen(n);
  const ProcSet all = ProcSet::universe(n);
  sim.run_until(gen, 600'000, [&] { return det.stabilized(all, 8); });
  ASSERT_TRUE(det.stabilized(all, 8));
  const ProcSet excluded = det.view(0).fd_output;
  ASSERT_EQ(excluded.size(), 1);
  for (Pid p = 1; p < n; ++p) EXPECT_EQ(det.view(p).fd_output, excluded);
  EXPECT_FALSE(det.common_winnerset(all).intersects(excluded));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KAntiOmegaSweep,
    ::testing::Values(SweepParams{3, 1, 1, 0, 1}, SweepParams{3, 1, 1, 1, 2},
                      SweepParams{4, 1, 2, 0, 3}, SweepParams{4, 1, 2, 2, 4},
                      SweepParams{4, 2, 2, 1, 5}, SweepParams{5, 2, 3, 0, 6},
                      SweepParams{5, 2, 3, 3, 7}, SweepParams{5, 1, 1, 1, 8},
                      SweepParams{6, 3, 3, 2, 9},
                      SweepParams{6, 2, 4, 4, 10}));

}  // namespace
}  // namespace setlib::fd
