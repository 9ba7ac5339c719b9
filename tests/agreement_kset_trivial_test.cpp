// The (t, k, n)-agreement algorithms: the detector + k-Paxos stack
// (Theorem 24) and the trivial k > t algorithm (Corollary 25), plus the
// outcome validator itself.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "src/agreement/kset.h"
#include "src/agreement/trivial.h"
#include "src/agreement/validator.h"
#include "src/fd/kantiomega.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"

namespace setlib::agreement {
namespace {

TEST(ValidatorTest, FlagsEachViolationKind) {
  const std::vector<std::int64_t> proposals{1, 2, 3};
  {
    // Too many distinct values for k = 1.
    std::vector<std::optional<std::int64_t>> d{1, 2, 1};
    const auto v = validate_agreement(1, 1, 3, proposals, d, ProcSet());
    EXPECT_FALSE(v.agreement_ok);
    EXPECT_TRUE(v.validity_ok);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.detail,
              "distinct=2/1 agreement=VIOLATED validity=ok termination=ok");
  }
  {
    // Invalid value.
    std::vector<std::optional<std::int64_t>> d{9, 9, 9};
    const auto v = validate_agreement(1, 1, 3, proposals, d, ProcSet());
    EXPECT_TRUE(v.agreement_ok);
    EXPECT_FALSE(v.validity_ok);
    EXPECT_EQ(v.detail,
              "distinct=1/1 agreement=ok validity=VIOLATED termination=ok");
  }
  {
    // Missing decision of a correct process.
    std::vector<std::optional<std::int64_t>> d{1, std::nullopt, 1};
    const auto v = validate_agreement(1, 1, 3, proposals, d, ProcSet());
    EXPECT_FALSE(v.termination_ok);
    EXPECT_EQ(v.detail,
              "distinct=1/1 agreement=ok validity=ok "
              "termination=incomplete");
  }
  {
    // Missing decision of a crashed process is fine.
    std::vector<std::optional<std::int64_t>> d{1, std::nullopt, 1};
    const auto v =
        validate_agreement(1, 1, 3, proposals, d, ProcSet::of(1));
    EXPECT_TRUE(v.termination_ok);
    EXPECT_TRUE(v.ok);
  }
  {
    // More crashes than t: termination vacuous.
    std::vector<std::optional<std::int64_t>> d{std::nullopt, std::nullopt,
                                               std::nullopt};
    const auto v =
        validate_agreement(1, 1, 3, proposals, d, ProcSet::of({1, 2}));
    EXPECT_TRUE(v.termination_ok);
    EXPECT_EQ(v.detail,
              "distinct=0/1 agreement=ok validity=ok termination=vacuous");
  }
}

TEST(TrivialTest, DecidesSmallestVisibleWriter) {
  const int n = 4, t = 1;
  shm::SimMemory mem;
  TrivialAgreement algo(mem, n, t);
  shm::Simulator sim(mem, n);
  std::vector<TrivialAgreement::Outcome> outs(n);
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(algo.run(p, 50 + p, &outs[p]), "trivial");
  }
  sched::RoundRobinGenerator gen(n);
  sim.run(gen, 10'000);
  for (Pid p = 0; p < n; ++p) {
    ASSERT_TRUE(outs[p].decided);
    // Under round-robin, process 0 writes first: everyone adopts it.
    EXPECT_EQ(outs[p].value, 50);
    EXPECT_EQ(outs[p].from, 0);
  }
}

class TrivialSweep
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(TrivialSweep, AtMostTPlusOneValues) {
  const auto [n, t, seed] = GetParam();
  const int k = t + 1;  // the k > t regime
  shm::SimMemory mem;
  TrivialAgreement algo(mem, n, t);
  shm::Simulator sim(mem, n);
  std::vector<TrivialAgreement::Outcome> outs(n);
  std::vector<std::int64_t> proposals;
  for (Pid p = 0; p < n; ++p) proposals.push_back(100 + p);
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(algo.run(p, proposals[p], &outs[p]), "trivial");
  }
  // Crash t processes at a random-ish early step.
  const sched::CrashPlan plan =
      sched::CrashPlan::at(n, ProcSet::range(n - t, n), 5 + (seed % 17));
  sim.use_crash_plan(plan);
  auto base = std::make_unique<sched::UniformRandomGenerator>(n, seed);
  sched::CrashFilterGenerator gen(std::move(base), plan);
  sim.run(gen, 200'000);

  std::vector<std::optional<std::int64_t>> decisions(n);
  for (Pid p = 0; p < n; ++p) {
    if (outs[p].decided) {
      decisions[p] = outs[p].value;
      // The adopted writer is always among the first t+1 processes.
      EXPECT_LE(outs[p].from, t);
    }
  }
  const auto v =
      validate_agreement(t, k, n, proposals, decisions, plan.faulty());
  EXPECT_TRUE(v.ok) << v.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TrivialSweep,
    ::testing::Combine(::testing::Values(3, 4, 6), ::testing::Values(1, 2),
                       ::testing::Values(1u, 7u, 23u)));

struct KSetRig {
  shm::SimMemory mem;
  std::unique_ptr<fd::KAntiOmega> detector;
  std::unique_ptr<KSetAgreement> kset;
  std::unique_ptr<shm::Simulator> sim;

  KSetRig(int n, int k, int t) {
    detector = std::make_unique<fd::KAntiOmega>(
        mem, fd::KAntiOmega::Params{n, k, t, 1});
    kset = std::make_unique<KSetAgreement>(
        mem, KSetAgreement::Params{n, k, t}, detector.get());
    sim = std::make_unique<shm::Simulator>(mem, n);
    for (Pid p = 0; p < n; ++p) {
      sim->process(p).add_task(detector->run(p), "fd");
      kset->install(sim->process(p), p, 100 + p);
    }
  }
};

TEST(KSetTest, ParamValidation) {
  shm::SimMemory mem;
  fd::KAntiOmega det(mem, {4, 2, 2, 1});
  EXPECT_THROW(
      KSetAgreement(mem, KSetAgreement::Params{4, 3, 2}, &det),
      ContractViolation);  // k mismatch with detector
  EXPECT_THROW(KSetAgreement(mem, KSetAgreement::Params{4, 2, 2}, nullptr),
               ContractViolation);
}

TEST(KSetTest, DistinctDecisionsHelpers) {
  KSetRig rig(4, 1, 2);
  sched::RoundRobinGenerator gen(4);
  rig.sim->run_until(gen, 300'000, [&] {
    return rig.kset->all_decided(ProcSet::universe(4));
  });
  ASSERT_TRUE(rig.kset->all_decided(ProcSet::universe(4)));
  const auto values = rig.kset->distinct_decisions(ProcSet::universe(4));
  EXPECT_EQ(values.size(), 1u);  // k = 1: consensus
  for (Pid p = 0; p < 4; ++p) {
    EXPECT_EQ(rig.kset->outcome(p).via_instance, 0);
  }
}

struct KSetParams {
  int n;
  int k;
  int t;
  int crashes;
  std::uint64_t seed;
};

// gtest prints GetParam() with PrintTo, and gtest_discover_tests names
// each ctest case by that printout: without it, the case name is a raw
// byte dump of the struct (padding bytes included).
void PrintTo(const KSetParams& p, std::ostream* os) {
  *os << "n" << p.n << "_k" << p.k << "_t" << p.t << "_crashes" << p.crashes
      << "_seed" << p.seed;
}

class KSetSweep : public ::testing::TestWithParam<KSetParams> {};

TEST_P(KSetSweep, SolvesInMatchingSystem) {
  const auto [n, k, t, crashes, seed] = GetParam();
  ASSERT_LE(crashes, t);
  KSetRig rig(n, k, t);
  const sched::CrashPlan plan =
      crashes > 0
          ? sched::CrashPlan::at(n, ProcSet::range(n - crashes, n),
                                 20'000 + 100 * (seed % 7))
          : sched::CrashPlan::none(n);
  rig.sim->use_crash_plan(plan);
  auto base = std::make_unique<sched::UniformRandomGenerator>(n, seed);
  std::vector<sched::TimelinessConstraint> constraints{
      sched::TimelinessConstraint(ProcSet::range(0, k),
                                  ProcSet::range(0, std::min(t + 1, n)),
                                  3)};
  sched::EnforcedGenerator gen(std::move(base), std::move(constraints),
                               plan);
  const ProcSet correct = plan.faulty().complement(n);
  rig.sim->run_until(gen, 2'000'000,
                     [&] { return rig.kset->all_decided(correct); });

  std::vector<std::int64_t> proposals;
  for (Pid p = 0; p < n; ++p) proposals.push_back(100 + p);
  std::vector<std::optional<std::int64_t>> decisions(n);
  for (Pid p = 0; p < n; ++p) {
    if (rig.kset->decided(p)) decisions[p] = rig.kset->outcome(p).value;
  }
  const auto v =
      validate_agreement(t, k, n, proposals, decisions, plan.faulty());
  EXPECT_TRUE(v.ok) << "n=" << n << " k=" << k << " t=" << t
                    << " crashes=" << crashes << " seed=" << seed << " :: "
                    << v.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KSetSweep,
    ::testing::Values(KSetParams{3, 1, 1, 0, 1}, KSetParams{3, 1, 1, 1, 2},
                      KSetParams{4, 1, 2, 2, 3}, KSetParams{4, 2, 2, 1, 4},
                      KSetParams{5, 2, 2, 2, 5}, KSetParams{5, 2, 3, 3, 6},
                      KSetParams{5, 1, 2, 1, 7}, KSetParams{6, 3, 3, 3, 8},
                      KSetParams{6, 2, 4, 2, 9},
                      KSetParams{6, 1, 1, 1, 10}));

TEST(KSetTest, DecisionsSurviveWinnersetCrash) {
  // Crash the initial winnerset {0} immediately: instance 0's initial
  // leader is gone; the detector must move the winnerset and another
  // ballot must carry. k = 1, t = 2, n = 4.
  KSetRig rig(4, 1, 2);
  const sched::CrashPlan plan = sched::CrashPlan::at(4, ProcSet::of(0), 0);
  rig.sim->use_crash_plan(plan);
  auto base = std::make_unique<sched::UniformRandomGenerator>(4, 11);
  std::vector<sched::TimelinessConstraint> constraints{
      sched::TimelinessConstraint(ProcSet::of(1), ProcSet::of({1, 2, 3}),
                                  3)};
  sched::EnforcedGenerator gen(std::move(base), std::move(constraints),
                               plan);
  const ProcSet correct = ProcSet::of({1, 2, 3});
  rig.sim->run_until(gen, 2'000'000,
                     [&] { return rig.kset->all_decided(correct); });
  EXPECT_TRUE(rig.kset->all_decided(correct));
  const auto values = rig.kset->distinct_decisions(correct);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_NE(values[0], 100);  // process 0 never ran: its value cannot win
}

}  // namespace
}  // namespace setlib::agreement
