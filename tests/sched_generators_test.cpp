#include "src/sched/generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/sched/analyzer.h"
#include "src/sched/enforcer.h"
#include "src/sched/families.h"
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
    std::int64_t rotate = 0;
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
          candidate = avail.nth(static_cast<int>(st.rotate % avail.size()));
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

// ---------------------------------------------------------------------
// fill() contract: any interleaving of fill() blocks and next() calls
// reads the same stream as next() alone.

using GeneratorFactory = std::function<std::unique_ptr<ScheduleGenerator>()>;

struct NamedFactory {
  std::string name;
  GeneratorFactory make;
};

// `steps` pids by next() alone.
std::vector<Pid> pull_by_next(ScheduleGenerator& gen, std::int64_t steps) {
  std::vector<Pid> out(static_cast<std::size_t>(steps));
  for (Pid& p : out) p = gen.next();
  return out;
}

// `steps` pids by seeded runs of fill() blocks and next() calls. Block
// sizes mix empty, small, medium and large, so blocks straddle phase
// ends, crash steps and substitutions.
std::vector<Pid> pull_mixed(ScheduleGenerator& gen, std::int64_t steps,
                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Pid> out(static_cast<std::size_t>(steps));
  std::size_t at = 0;
  while (at < out.size()) {
    constexpr std::uint64_t kScales[] = {1, 9, 200, 5'000};
    const std::size_t len = std::min<std::size_t>(
        out.size() - at, rng.next_below(kScales[rng.next_below(4)]));
    if (rng.next_bool(0.5)) {
      gen.fill(std::span<Pid>(out).subspan(at, len));
    } else {
      for (std::size_t k = 0; k < len; ++k) out[at + k] = gen.next();
    }
    at += len;
  }
  return out;
}

std::unique_ptr<EnforcedGenerator> census_enforced(std::uint64_t seed) {
  return EnforcedGenerator::single(
      std::make_unique<UniformRandomGenerator>(24, seed),
      TimelinessConstraint(ProcSet::range(0, 2), ProcSet::range(0, 23), 3));
}

// Three overlapping constraints over n = 6; by step 900 the timely set
// {4, 5} has fully crashed, so the third constraint is dropped from
// then on, and 2's crash empties the second one's timely set at 300.
std::unique_ptr<EnforcedGenerator> crashing_enforced(
    std::uint64_t seed, std::size_t constraints) {
  CrashPlan plan(6);
  plan.set_crash(2, 300);
  plan.set_crash(5, 700);
  plan.set_crash(4, 900);
  std::vector<TimelinessConstraint> all = {
      {ProcSet::of({0, 1}), ProcSet::universe(6), 3},
      {ProcSet::of({2}), ProcSet::of({3, 4, 5}), 2},
      {ProcSet::of({4, 5}), ProcSet::of({0, 2, 3}), 4}};
  all.erase(all.begin() + static_cast<std::ptrdiff_t>(constraints),
            all.end());
  return std::make_unique<EnforcedGenerator>(
      std::make_unique<UniformRandomGenerator>(6, seed), std::move(all),
      plan);
}

// Two constraints that feed each other: the second one's substitute 1
// breaks the first, whose substitute 0 breaks the second again, so
// steps run through the restart rounds up to their cap of 8.
std::unique_ptr<EnforcedGenerator> chained_enforced(std::uint64_t seed = 9) {
  return std::make_unique<EnforcedGenerator>(
      std::make_unique<UniformRandomGenerator>(4, seed),
      std::vector<TimelinessConstraint>{
          {ProcSet::of({0}), ProcSet::of({1, 3}), 1},
          {ProcSet::of({1}), ProcSet::of({0, 2}), 2}},
      CrashPlan::none(4));
}

std::vector<NamedFactory> every_generator(std::uint64_t seed) {
  const FamilyParams params{8, 16, 2, 2'000, 700};
  std::vector<NamedFactory> out = {
      {"round-robin", [] { return std::make_unique<RoundRobinGenerator>(5); }},
      {"uniform",
       [seed] { return std::make_unique<UniformRandomGenerator>(24, seed); }},
      {"weighted",
       [seed] {
         return std::make_unique<WeightedRandomGenerator>(
             std::vector<double>{1.0, 0.1, 3.0, 0.0, 2.0}, seed);
       }},
      {"figure1",
       [] { return std::make_unique<Figure1Generator>(4, 0, 1, 3); }},
      {"rotating-starver",
       [] {
         return std::make_unique<RotatingStarverGenerator>(
             6, ProcSet::of({0, 1, 2}), ProcSet::of({3, 4}), 2);
       }},
      {"k-subset-starver",
       [] {
         return std::make_unique<KSubsetStarverGenerator>(
             24, ProcSet::universe(24), 2, 64);
       }},
      {"k-subset-starver-partial",
       [] {
         return std::make_unique<KSubsetStarverGenerator>(
             7, ProcSet::of({0, 2, 3, 5, 6}), 3, 3);
       }},
      {"switch",
       [seed] {
         return std::make_unique<SwitchGenerator>(
             std::make_unique<UniformRandomGenerator>(5, seed),
             std::make_unique<RoundRobinGenerator>(5), 1'234);
       }},
      {"replay",
       [seed] {
         UniformRandomGenerator base(5, seed);
         return std::make_unique<ReplayGenerator>(generate(base, 2'500));
       }},
      {"crash-filter",
       [seed] {
         return std::make_unique<CrashFilterGenerator>(
             std::make_unique<UniformRandomGenerator>(5, seed),
             CrashPlan::at(5, ProcSet::of({1, 3}), 800));
       }},
      {"bursty",
       [seed] { return std::make_unique<BurstyGenerator>(6, 20, seed); }},
      {"starvation",
       [seed] { return std::make_unique<StarvationGenerator>(6, 20, seed); }},
      {"enforced-census", [seed] { return census_enforced(seed); }},
      {"enforced-1-crash", [seed] { return crashing_enforced(seed, 1); }},
      {"enforced-2-crash", [seed] { return crashing_enforced(seed, 2); }},
      {"enforced-3-crash", [seed] { return crashing_enforced(seed, 3); }},
      {"enforced-chained", [seed] { return chained_enforced(seed); }},
  };
  for (const FamilyInfo& info : schedule_families()) {
    out.push_back({std::string("family-") + info.name, [info, params, seed] {
                     return make_family(info.kind, params, seed);
                   }});
  }
  return out;
}

TEST(GeneratorFillTest, FillInterleavedWithNextMatchesNextStream) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const NamedFactory& f : every_generator(seed)) {
      auto by_next = f.make();
      auto mixed = f.make();
      const std::vector<Pid> want = pull_by_next(*by_next, 12'000);
      const std::vector<Pid> got = pull_mixed(*mixed, 12'000, seed * 7919);
      ASSERT_EQ(got, want) << f.name << " seed " << seed;
      // Both leave the generator in the same state.
      EXPECT_EQ(pull_by_next(*mixed, 100), pull_by_next(*by_next, 100))
          << f.name << " seed " << seed;
    }
  }
}

TEST(GeneratorFillTest, EnforcedFillKeepsSubstitutionAndDropCounts) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (std::size_t constraints = 1; constraints <= 3; ++constraints) {
      auto by_next = crashing_enforced(seed, constraints);
      auto mixed = crashing_enforced(seed, constraints);
      ASSERT_EQ(pull_mixed(*mixed, 4'000, seed), pull_by_next(*by_next, 4'000))
          << constraints << " constraints, seed " << seed;
      EXPECT_EQ(mixed->substitutions(), by_next->substitutions());
      EXPECT_EQ(mixed->dropped_constraints(), by_next->dropped_constraints());
      EXPECT_GT(mixed->substitutions(), 0);
      if (constraints >= 2) {
        EXPECT_GT(mixed->dropped_constraints(), 0);
      }
    }
  }
}

// A base that only ever picks a crashed process: every step then ends
// in next()'s pull cap and the smallest-alive fallback, and fill()'s
// cap must count across its pull batches the same way.
TEST(GeneratorFillTest, EnforcedFillHonoursThePullCap) {
  const auto make = [] {
    std::vector<TimelinessConstraint> constraints = {
        {ProcSet::of({1, 2}), ProcSet::universe(4), 2}};
    return std::make_unique<EnforcedGenerator>(
        std::make_unique<RotatingStarverGenerator>(4, ProcSet::of({3}),
                                                   ProcSet()),
        std::move(constraints), CrashPlan::at(4, ProcSet::of({3}), 5));
  };
  auto by_next = make();
  auto filled = make();
  const std::vector<Pid> want = pull_by_next(*by_next, 9);
  std::vector<Pid> got(9);
  filled->fill(got);
  EXPECT_EQ(got, want);
  // Steps 0-4 take the base's 3, from step 5 on the fallback 0; every
  // second Q-step is replaced by 1 or 2 in turn.
  const std::vector<Pid> expect{3, 1, 3, 2, 3, 1, 0, 2, 0};
  EXPECT_EQ(want, expect);
  EXPECT_EQ(filled->substitutions(), by_next->substitutions());
}

// The pull cap counts the crashed picks of one step only: a base that
// needs 999,999 crashed picks before every alive one never reaches it.
TEST(GeneratorFillTest, EnforcedPullCapIsPerStep) {
  class NearCap final : public ScheduleGenerator {
   public:
    int n() const override { return 4; }
    Pid next() override {
      if (++pulls_ < 1'000'000) return 3;
      pulls_ = 0;
      return 2;
    }

   private:
    int pulls_ = 0;
  };
  const auto make = [] {
    return std::make_unique<EnforcedGenerator>(
        std::make_unique<NearCap>(),
        std::vector<TimelinessConstraint>{
            {ProcSet::of({2}), ProcSet::of({2}), 1}},
        CrashPlan::at(4, ProcSet::of({3}), 0));
  };
  auto by_next = make();
  auto filled = make();
  std::vector<Pid> got(3);
  filled->fill(got);
  EXPECT_EQ(pull_by_next(*by_next, 3), (std::vector<Pid>{2, 2, 2}));
  EXPECT_EQ(got, (std::vector<Pid>{2, 2, 2}));
}

// The substitution cursor is cached between crash points; after every
// crash point it must still be member rotate % |P ∩ alive| of the
// surviving timely members (rotate: substitutions so far, 64-bit).
TEST(EnforcedGeneratorTest, CursorFollowsRotateAcrossCrashPoints) {
  constexpr int kN = 8;
  const ProcSet timely = ProcSet::of({0, 1, 2, 3, 4});
  CrashPlan plan(kN);
  plan.set_crash(1, 137);
  plan.set_crash(3, 411);
  plan.set_crash(0, 977);
  plan.set_crash(4, 1'203);
  plan.set_crash(2, 1'500);  // P fully crashed: the constraint drops
  int shifted_crash_points = 0;  // where the cursor is not P ∩ alive's min
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EnforcedGenerator gen(std::make_unique<UniformRandomGenerator>(kN, seed),
                          {{timely, ProcSet::universe(kN), 2}}, plan);
    UniformRandomGenerator base(kN, seed);
    std::int64_t rotate = 0;
    std::int64_t q_steps_since_p = 0;
    for (std::int64_t emitted = 0; emitted < 2'000; ++emitted) {
      const ProcSet alive = plan.alive_at(emitted);
      const ProcSet avail = timely & alive;
      if (emitted > 0 && alive != plan.alive_at(emitted - 1) &&
          avail.size() > 1 && rotate % avail.size() != 0) {
        ++shifted_crash_points;
      }
      Pid candidate = base.next();
      while (!alive.contains(candidate)) candidate = base.next();
      if (!timely.contains(candidate) && q_steps_since_p >= 1 &&
          !avail.empty()) {
        candidate = avail.nth(static_cast<int>(rotate % avail.size()));
        ++rotate;
      }
      q_steps_since_p =
          timely.contains(candidate) ? 0 : q_steps_since_p + 1;
      ASSERT_EQ(gen.next(), candidate)
          << "seed " << seed << " at pull " << emitted;
    }
    EXPECT_EQ(gen.substitutions(), rotate);
    EXPECT_GT(gen.dropped_constraints(), 0);
  }
  EXPECT_GT(shifted_crash_points, 0);  // a stale cursor would show
}

// Hashes of the pre-fill() streams: next() and fill() must both keep
// reproducing them.
TEST(GeneratorFillTest, PinnedScheduleHashes) {
  struct Pin {
    const char* name;
    std::function<std::unique_ptr<ScheduleGenerator>()> make;
    std::int64_t steps;
    const char* hash;
  };
  const std::vector<Pin> pins = {
      {"enforced census", [] { return census_enforced(11); }, 40'000,
       "c54b9aaf2742ad6c"},
      {"starver census",
       [] {
         return std::make_unique<KSubsetStarverGenerator>(
             24, ProcSet::universe(24), 2, 64);
       },
       40'000, "8f5bfedcbe368d5c"},
      {"3 constraints + crashes", [] { return crashing_enforced(2024, 3); },
       5'000, "4aea284e5b9ab475"},
      {"chained constraints", [] { return chained_enforced(); }, 3'000,
       "87a1967a4a9d46c7"},
  };
  for (const Pin& pin : pins) {
    auto filled = pin.make();
    EXPECT_EQ(hash_hex(schedule_hash(generate(*filled, pin.steps))),
              pin.hash)
        << pin.name;
    auto stepped = pin.make();
    const Schedule by_next(stepped->n(), pull_by_next(*stepped, pin.steps));
    EXPECT_EQ(hash_hex(schedule_hash(by_next)), pin.hash) << pin.name;
  }
  auto census = census_enforced(11);
  generate(*census, 40'000);
  EXPECT_EQ(census->substitutions(), 10'578);
  auto crashing = crashing_enforced(2024, 3);
  generate(*crashing, 5'000);
  EXPECT_EQ(crashing->substitutions(), 425);
  EXPECT_EQ(crashing->dropped_constraints(), 4'283);
  auto chained = chained_enforced();
  generate(*chained, 3'000);
  EXPECT_EQ(chained->substitutions(), 16'491);
}

}  // namespace
}  // namespace setlib::sched
