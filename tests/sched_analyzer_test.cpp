#include "src/sched/analyzer.h"

#include <gtest/gtest.h>

#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/util/assert.h"
#include "src/util/rng.h"

namespace setlib::sched {
namespace {

TEST(MinBoundTest, HandComputedExamples) {
  // Schedule: q q p q q q p  (p = 0, q = 1)
  const Schedule s(2, {1, 1, 0, 1, 1, 1, 0});
  // Largest P-free window has 3 q-steps -> bound 4.
  EXPECT_EQ(min_timeliness_bound(s, ProcSet::of(0), ProcSet::of(1)), 4);
  // Bound from suffix index 3: window q q q -> 4 as well.
  EXPECT_EQ(min_timeliness_bound(s, ProcSet::of(0), ProcSet::of(1), 3, 7),
            4);
  // Restricted to [0,3): q q p -> bound 3.
  EXPECT_EQ(min_timeliness_bound(s, ProcSet::of(0), ProcSet::of(1), 0, 3),
            3);
}

TEST(MinBoundTest, SelfTimelinessIsOne) {
  // Observation 5's engine: any set is timely w.r.t. itself with bound 1.
  UniformRandomGenerator gen(5, 3);
  const Schedule s = generate(gen, 5'000);
  for (int size = 1; size <= 3; ++size) {
    for (const ProcSet p : k_subsets(5, size)) {
      EXPECT_EQ(min_timeliness_bound(s, p, p), 1) << p.to_string();
    }
  }
}

TEST(MinBoundTest, SilentObserverGivesBoundOne) {
  const Schedule s(3, {0, 1, 0, 1});
  // q = {2} never steps: vacuously timely.
  EXPECT_EQ(min_timeliness_bound(s, ProcSet::of(0), ProcSet::of(2)), 1);
}

TEST(MinBoundTest, PNeverSteppingDiverges) {
  const Schedule s(2, std::vector<Pid>(100, 1));
  EXPECT_EQ(min_timeliness_bound(s, ProcSet::of(0), ProcSet::of(1)), 101);
}

TEST(IsTimelyTest, ThresholdSemantics) {
  // Definition 1 on the prefix: P is timely w.r.t. Q with bound b iff
  // the minimal bound is at most b, i.e. iff (P, Q) is a member at cap
  // b. Here the minimal bound is 3.
  const Schedule s(2, {1, 1, 0, 1, 1, 0});
  EXPECT_EQ(min_timeliness_bound(s, ProcSet::of(0), ProcSet::of(1)), 3);
  const PackedSchedule packed(s);
  const RankedPairScan scan(packed, 1, 1);
  // Pairs in rank order: ({0},{0}), ({0},{1}), ({1},{0}), ({1},{1}).
  EXPECT_EQ(scan.count_members(3).members, 4);
  EXPECT_EQ(scan.count_members(2).members, 3);  // ({0},{1}) needs 3
  EXPECT_THROW(scan.count_members(0), ContractViolation);
}

TEST(Figure1ClaimTest, PaperExampleBounds) {
  // The paper's Figure 1 claims, on S = [(p1 q)^i (p2 q)^i]:
  //  - {p1} and {p2} are not timely w.r.t. {q} (bounds diverge), and
  //  - {p1, p2} is timely w.r.t. {q} with a small constant bound.
  Figure1Generator gen(3, 0, 1, 2);
  const Schedule s =
      generate(gen, Figure1Generator::steps_through_phase(40));
  const std::int64_t b1 =
      min_timeliness_bound(s, ProcSet::of(0), ProcSet::of(2));
  const std::int64_t b2 =
      min_timeliness_bound(s, ProcSet::of(1), ProcSet::of(2));
  const std::int64_t bu =
      min_timeliness_bound(s, ProcSet::of({0, 1}), ProcSet::of(2));
  EXPECT_GE(b1, 40);  // starved through the whole (p2 q)^40 half
  EXPECT_GE(b2, 40);
  EXPECT_EQ(bu, 2);
}

TEST(PairMembershipTest, BestPairFindsEnforcedWitness) {
  // Enforce {0,1} timely w.r.t. {2,3,4} at bound 3 over random noise;
  // the analyzer's best (2,3)-pair must be at most that bound.
  auto base = std::make_unique<UniformRandomGenerator>(5, 77);
  auto gen = EnforcedGenerator::single(
      std::move(base),
      TimelinessConstraint(ProcSet::of({0, 1}), ProcSet::of({2, 3, 4}), 3));
  const Schedule s = generate(*gen, 20'000);
  const PackedSchedule packed(s);
  const TimelyPair best = RankedPairScan(packed, 2, 3).best_pair();
  EXPECT_LE(best.bound, 3);
}

TEST(PairMembershipTest, FirstMemberIsTheWitness) {
  RoundRobinGenerator gen(4);
  const Schedule s = generate(gen, 400);
  const PackedSchedule packed(s);
  // Round-robin: every singleton is timely w.r.t. everything with
  // bound <= n.
  const auto witness = RankedPairScan(packed, 1, 4).count_members(4).first;
  ASSERT_TRUE(witness.has_value());
  EXPECT_LE(witness->bound, 4);
  // A starved process never qualifies as the timely side of a pair with
  // an active observer (only the degenerate P == Q witness remains —
  // Observation 5's asynchrony witness).
  const Schedule starved(2, std::vector<Pid>(64, 1));
  const PackedSchedule starved_packed(starved);
  EXPECT_EQ(starved_packed.bound_for(ProcSet::of(0), ProcSet::of(1)), 65);
  const auto degenerate =
      RankedPairScan(starved_packed, 1, 1).count_members(2).first;
  ASSERT_TRUE(degenerate.has_value());
  EXPECT_EQ(degenerate->timely_set, degenerate->observed_set);
}

TEST(PairMembershipTest, ObservationFiveAsynchronyWitness) {
  // In any schedule, i == j membership holds with bound 1 (P = Q).
  UniformRandomGenerator gen(4, 123);
  const Schedule s = generate(gen, 2'000);
  const PackedSchedule packed(s);
  for (int i = 1; i <= 4; ++i) {
    const auto witness = RankedPairScan(packed, i, i).count_members(1).first;
    ASSERT_TRUE(witness.has_value()) << "i=" << i;
    EXPECT_EQ(witness->bound, 1);
  }
}

class EnforcerParamTest
    : public ::testing::TestWithParam<std::tuple<int, int, std::int64_t,
                                                 std::uint64_t>> {};

TEST_P(EnforcerParamTest, ConstraintHoldsOnExecutedSchedule) {
  const auto [i, j, bound, seed] = GetParam();
  const int n = 6;
  const ProcSet p = ProcSet::range(0, i);
  const ProcSet q = ProcSet::range(0, j);
  auto base = std::make_unique<UniformRandomGenerator>(n, seed);
  auto gen = EnforcedGenerator::single(std::move(base),
                                       TimelinessConstraint(p, q, bound));
  const Schedule s = generate(*gen, 30'000);
  EXPECT_LE(min_timeliness_bound(s, p, q), bound);
  EXPECT_EQ(gen->dropped_constraints(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnforcerParamTest,
    ::testing::Combine(::testing::Values(1, 2, 3),     // i
                       ::testing::Values(3, 5, 6),     // j
                       ::testing::Values(2, 3, 8),     // bound
                       ::testing::Values(1u, 42u)));   // seed

TEST(EnforcerTest, CountsSubstitutions) {
  // Base heavily biased toward pid 2 in Q \ P: the enforcer must
  // substitute P steps regularly.
  auto base = std::make_unique<WeightedRandomGenerator>(
      std::vector<double>{0.01, 1.0, 1.0}, 5);
  auto gen = EnforcedGenerator::single(
      std::move(base),
      TimelinessConstraint(ProcSet::of(0), ProcSet::of({1, 2}), 2));
  const Schedule s = generate(*gen, 5'000);
  EXPECT_LE(min_timeliness_bound(s, ProcSet::of(0), ProcSet::of({1, 2})),
            2);
  EXPECT_GT(gen->substitutions(), 1'000);
}

TEST(EnforcerTest, DropsConstraintWhenTimelySetCrashes) {
  auto base = std::make_unique<UniformRandomGenerator>(3, 9);
  std::vector<TimelinessConstraint> constraints{
      TimelinessConstraint(ProcSet::of(0), ProcSet::of({1, 2}), 2)};
  EnforcedGenerator gen(std::move(base), std::move(constraints),
                        CrashPlan::at(3, ProcSet::of(0), 100));
  const Schedule s = generate(gen, 5'000);
  EXPECT_GT(gen.dropped_constraints(), 0);
  // After the crash no pid-0 steps appear.
  EXPECT_EQ(s.count(0, 200, s.size()), 0);
}

}  // namespace
}  // namespace setlib::sched
