#include "src/sched/generators.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sched/analyzer.h"
#include "src/sched/enforcer.h"
#include "src/util/assert.h"
#include "src/util/rng.h"

namespace setlib::sched {
namespace {

TEST(RoundRobinTest, CyclesInOrder) {
  RoundRobinGenerator gen(3);
  const Schedule s = generate(gen, 7);
  const std::vector<Pid> expect{0, 1, 2, 0, 1, 2, 0};
  EXPECT_EQ(s.steps(), expect);
}

TEST(UniformRandomTest, FairOverLongRuns) {
  UniformRandomGenerator gen(4, 99);
  const Schedule s = generate(gen, 40'000);
  for (Pid p = 0; p < 4; ++p) {
    EXPECT_NEAR(s.count(p), 10'000, 2'000) << "pid " << p;
  }
}

TEST(UniformRandomTest, SeedDeterminism) {
  UniformRandomGenerator a(5, 1), b(5, 1), c(5, 2);
  bool differ = false;
  for (int i = 0; i < 200; ++i) {
    const Pid pa = a.next();
    EXPECT_EQ(pa, b.next());
    if (pa != c.next()) differ = true;
  }
  EXPECT_TRUE(differ);
}

// The generator's fixed-bound draw must reproduce the stream of plain
// next_below(n) draws on the same seed, for power-of-two and other n.
TEST(UniformRandomTest, StreamMatchesNextBelowLoop) {
  for (const int n : {3, 4, 5, 24}) {
    UniformRandomGenerator gen(n, 0x5eed + static_cast<std::uint64_t>(n));
    Rng reference(0x5eed + static_cast<std::uint64_t>(n));
    for (int t = 0; t < 50'000; ++t) {
      const Pid want = static_cast<Pid>(
          reference.next_below(static_cast<std::uint64_t>(n)));
      const Pid got = gen.next();
      if (got != want) FAIL() << "n " << n << " step " << t;
    }
  }
}

TEST(WeightedRandomTest, RespectsWeights) {
  WeightedRandomGenerator gen({1.0, 0.0, 9.0}, 5);
  const Schedule s = generate(gen, 20'000);
  EXPECT_EQ(s.count(1), 0);
  EXPECT_GT(s.count(2), 5 * s.count(0));
}

TEST(Figure1Test, ExactPrefixStructure) {
  // Phase 1: (p1 q)(p2 q); phase 2: (p1 q)^2 (p2 q)^2; ...
  Figure1Generator gen(3, 0, 1, 2);
  const Schedule s = generate(gen, 12);
  const std::vector<Pid> expect{0, 2, 1, 2,              // i = 1
                                0, 2, 0, 2, 1, 2, 1, 2}; // i = 2
  EXPECT_EQ(s.steps(), expect);
}

TEST(Figure1Test, StepsThroughPhaseFormula) {
  EXPECT_EQ(Figure1Generator::steps_through_phase(0), 0);
  EXPECT_EQ(Figure1Generator::steps_through_phase(1), 4);
  EXPECT_EQ(Figure1Generator::steps_through_phase(2), 12);
  EXPECT_EQ(Figure1Generator::steps_through_phase(3), 24);
  // Cross-check: generating through phase i emits exactly that many
  // steps before the next phase's first step.
  Figure1Generator gen(3, 0, 1, 2);
  const Schedule s = generate(gen, 25);
  EXPECT_EQ(s[24], 0);  // phase 4 starts with p1
}

TEST(Figure1Test, ValidatesDistinctPids) {
  EXPECT_THROW((Figure1Generator(3, 0, 0, 2)), ContractViolation);
  EXPECT_THROW((Figure1Generator(2, 0, 1, 2)), ContractViolation);
}

TEST(RotatingStarverTest, PhaseStructure) {
  // Rotors {0,1}, background {2}: phase 1 = [0 2], phase 2 = [1 2][1 2].
  RotatingStarverGenerator gen(3, ProcSet::of({0, 1}), ProcSet::of({2}), 1);
  const Schedule s = generate(gen, 6);
  const std::vector<Pid> expect{0, 2, 1, 2, 1, 2};
  EXPECT_EQ(s.steps(), expect);
}

TEST(RotatingStarverTest, RotorSetTimelyButMembersStarved) {
  const ProcSet rotors = ProcSet::of({0, 1, 2});
  const ProcSet background = ProcSet::of({3});
  RotatingStarverGenerator gen(4, rotors, background, 4);
  const Schedule s = generate(gen, 4'000);
  // The rotor set as one virtual process is timely w.r.t. background.
  EXPECT_LE(min_timeliness_bound(s, rotors, background), 2);
  // Each individual rotor is starved for long stretches.
  for (Pid r : rotors.to_vector()) {
    EXPECT_GT(min_timeliness_bound(s, ProcSet::of(r), background), 20)
        << "rotor " << r;
  }
}

TEST(RotatingStarverTest, EmptyBackgroundEmitsRotorsSolo) {
  RotatingStarverGenerator gen(3, ProcSet::of({0, 1, 2}), ProcSet(), 2);
  const Schedule s = generate(gen, 2 + 4 + 6);
  // Phase 1: rotor 0 twice; phase 2: rotor 1 four times; phase 3:
  // rotor 2 six times.
  EXPECT_EQ(s.count(0, 0, 2), 2);
  EXPECT_EQ(s.count(1, 2, 6), 4);
  EXPECT_EQ(s.count(2, 6, 12), 6);
}

TEST(KSubsetStarverTest, AtMostKStarvedPerPhase) {
  const int n = 5, k = 2;
  KSubsetStarverGenerator gen(n, ProcSet::universe(n), k, 3);
  // Phase m has length 3m; walk phases and check the silent set size.
  std::int64_t offset = 0;
  const Schedule s = generate(gen, 3 * (1 + 2 + 3 + 4 + 5 + 6));
  for (std::int64_t m = 1; m <= 6; ++m) {
    const std::int64_t len = 3 * m;
    ProcSet appearing;
    for (std::int64_t idx = offset; idx < offset + len; ++idx) {
      appearing = appearing.with(s[idx]);
    }
    EXPECT_GE(appearing.size(), n - k) << "phase " << m;
    offset += len;
  }
}

TEST(KSubsetStarverTest, EveryKSubsetEventuallyStarved) {
  const int n = 4, k = 1;
  KSubsetStarverGenerator gen(n, ProcSet::universe(n), k, 8);
  const Schedule s = generate(gen, 4'000);
  // Every singleton is starved in some growing phase: its bound w.r.t.
  // the rest diverges.
  for (Pid p = 0; p < n; ++p) {
    EXPECT_GT(min_timeliness_bound(s, ProcSet::of(p),
                                   ProcSet::of(p).complement(n)),
              12);
  }
  // ... while every (k+1)-subset remains timely w.r.t. everyone.
  for (const ProcSet pair : k_subsets(n, k + 1)) {
    EXPECT_LE(min_timeliness_bound(s, pair, ProcSet::universe(n)), 2 * n)
        << pair.to_string();
  }
}

// The starver's phase and round-robin bookkeeping, restated with `%`:
// phase m (length growth * m) starves the k-subset of rank
// (m - 1) mod C(n, k) and cycles through the rest.
TEST(KSubsetStarverTest, StreamMatchesModuloLoop) {
  const int n = 24, k = 2;
  const std::int64_t growth = 64;
  KSubsetStarverGenerator gen(n, ProcSet::universe(n), k, growth);
  const std::vector<ProcSet> starved = k_subsets(n, k);
  std::int64_t phase = 1;
  std::int64_t step_in_phase = 0;
  std::size_t rr = 0;
  for (int t = 0; t < 50'000; ++t) {
    if (step_in_phase == growth * phase) {
      ++phase;
      step_in_phase = 0;
      rr = 0;
    }
    const std::vector<Pid> active =
        starved[static_cast<std::size_t>(phase - 1) % starved.size()]
            .complement(n)
            .to_vector();
    const Pid want = active[rr];
    rr = (rr + 1) % active.size();
    ++step_in_phase;
    const Pid got = gen.next();
    if (got != want) FAIL() << "step " << t;
  }
}

TEST(KSubsetStarverTest, RequiresActiveRemainder) {
  EXPECT_THROW(
      (KSubsetStarverGenerator(3, ProcSet::universe(3), 3, 1)),
      ContractViolation);
}

TEST(CrashPlanTest, Accessors) {
  CrashPlan plan(4);
  EXPECT_EQ(plan.faulty(), ProcSet());
  plan.set_crash(2, 100);
  EXPECT_TRUE(plan.crashed_by(2, 100));
  EXPECT_FALSE(plan.crashed_by(2, 99));
  EXPECT_EQ(plan.faulty(), ProcSet::of({2}));
  EXPECT_EQ(plan.correct(), ProcSet::of({0, 1, 3}));
  EXPECT_EQ(plan.alive_at(99), ProcSet::universe(4));
  EXPECT_EQ(plan.alive_at(100), ProcSet::of({0, 1, 3}));
}

TEST(CrashPlanTest, AtFactory) {
  const CrashPlan plan = CrashPlan::at(5, ProcSet::of({3, 4}), 7);
  EXPECT_EQ(plan.faulty(), ProcSet::of({3, 4}));
  EXPECT_EQ(plan.crash_step(3), 7);
  EXPECT_EQ(plan.crash_step(0), CrashPlan::kNever);
}

// EnforcedGenerator caches the alive set between the plan's crash
// steps; its stream must equal an enforcer that recomputes alive_at on
// every pull (the same algorithm, written out here).
TEST(EnforcedGeneratorTest, CachedAliveSetMatchesPerPullRecompute) {
  constexpr int kN = 5;
  constexpr std::uint64_t kSeed = 77;
  CrashPlan plan(kN);
  plan.set_crash(1, 100);
  plan.set_crash(3, 250);
  const std::vector<TimelinessConstraint> constraints = {
      {ProcSet::of({1, 2}), ProcSet::universe(kN), 3},
      {ProcSet::of({3}), ProcSet::of({0, 4}), 2}};
  EnforcedGenerator gen(std::make_unique<UniformRandomGenerator>(kN, kSeed),
                        constraints, plan);

  struct RefState {
    TimelinessConstraint c;
    std::int64_t q_steps_since_p = 0;
    int rotate = 0;
  };
  std::vector<RefState> states;
  for (const auto& c : constraints) states.push_back(RefState{c});
  UniformRandomGenerator base(kN, kSeed);
  std::int64_t substitutions = 0;
  std::int64_t dropped = 0;
  for (std::int64_t emitted = 0; emitted < 1000; ++emitted) {
    const ProcSet alive = plan.alive_at(emitted);
    Pid candidate = -1;
    for (int attempts = 0; attempts < 1'000'000 && candidate < 0;
         ++attempts) {
      const Pid p = base.next();
      if (alive.contains(p)) candidate = p;
    }
    if (candidate < 0) candidate = alive.min();
    bool changed = true;
    for (int rounds = 0; changed && rounds < 8; ++rounds) {
      changed = false;
      for (auto& st : states) {
        if (st.c.observed_set.contains(candidate) &&
            !st.c.timely_set.contains(candidate) &&
            st.q_steps_since_p >= st.c.bound - 1) {
          const ProcSet avail = st.c.timely_set & alive;
          if (avail.empty()) {
            ++dropped;
            continue;
          }
          candidate = avail.nth(st.rotate % avail.size());
          ++st.rotate;
          ++substitutions;
          changed = true;
          break;
        }
      }
    }
    for (auto& st : states) {
      if (st.c.timely_set.contains(candidate)) {
        st.q_steps_since_p = 0;
      } else if (st.c.observed_set.contains(candidate)) {
        ++st.q_steps_since_p;
      }
    }
    ASSERT_EQ(gen.next(), candidate) << "at pull " << emitted;
  }
  EXPECT_EQ(gen.substitutions(), substitutions);
  EXPECT_EQ(gen.dropped_constraints(), dropped);
  EXPECT_GT(substitutions, 0);
  EXPECT_GT(dropped, 0);  // {3} is gone after step 250
}

TEST(CrashPlanTest, NextCrashAfter) {
  CrashPlan plan(4);
  EXPECT_EQ(plan.next_crash_after(0), CrashPlan::kNever);
  plan.set_crash(1, 100);
  plan.set_crash(3, 250);
  plan.set_crash(0, 0);
  EXPECT_EQ(plan.next_crash_after(-1), 0);
  EXPECT_EQ(plan.next_crash_after(0), 100);
  EXPECT_EQ(plan.next_crash_after(99), 100);
  EXPECT_EQ(plan.next_crash_after(100), 250);
  EXPECT_EQ(plan.next_crash_after(250), CrashPlan::kNever);
}

TEST(CrashFilterTest, SuppressesCrashedSteps) {
  auto base = std::make_unique<RoundRobinGenerator>(3);
  CrashFilterGenerator gen(std::move(base), CrashPlan::at(3, ProcSet::of({1}), 2));
  const Schedule s = generate(gen, 8);
  // Steps 0,1 may include pid 1; from emitted index 2 on, never.
  for (std::int64_t idx = 2; idx < s.size(); ++idx) {
    EXPECT_NE(s[idx], 1) << "at " << idx;
  }
  EXPECT_GT(s.count(0), 0);
  EXPECT_GT(s.count(2), 0);
}

}  // namespace
}  // namespace setlib::sched
