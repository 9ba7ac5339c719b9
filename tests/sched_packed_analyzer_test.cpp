// Differential coverage for the word-packed analyzer core: the packed
// scan, the incremental BoundTracker, and the batched RankedPairScan
// must be bit-identical to min_timeliness_bound_reference (the
// original per-step scan, kept as the executable spec) on randomized
// schedules, and the P-rank range splits must compose.
#include "src/sched/analyzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/sched/simd.h"
#include "src/util/arena.h"
#include "src/util/assert.h"
#include "src/util/rng.h"

namespace setlib::sched {
namespace {

// A randomized schedule drawn from one of the repo's generator shapes.
Schedule random_schedule(Rng& rng, int n, std::int64_t len) {
  const int shape = static_cast<int>(rng.next_below(4));
  switch (shape) {
    case 0: {
      UniformRandomGenerator gen(n, rng.next_u64());
      return generate(gen, len);
    }
    case 1: {
      std::vector<double> weights;
      for (int p = 0; p < n; ++p) {
        weights.push_back(rng.next_double() < 0.3 ? 0.05 : 1.0);
      }
      weights[0] = 1.0;  // not all ~0
      WeightedRandomGenerator gen(std::move(weights), rng.next_u64());
      return generate(gen, len);
    }
    case 2: {
      RoundRobinGenerator gen(n);
      return generate(gen, len);
    }
    default: {
      KSubsetStarverGenerator gen(
          n, ProcSet::universe(n),
          1 + static_cast<int>(
                  rng.next_below(static_cast<std::uint64_t>(n - 1))),
          1 + rng.next_in(0, 8));
      return generate(gen, len);
    }
  }
}

ProcSet random_set(Rng& rng, int n) {
  ProcSet s;
  for (Pid p = 0; p < n; ++p) {
    if (rng.next_bool(0.4)) s = s.with(p);
  }
  return s;
}

TEST(PackedEquivalenceTest, RandomizedBoundsBitIdentical) {
  // The acceptance suite: 1000 randomized schedules, packed vs
  // reference, including word-boundary lengths and random [from, to)
  // windows.
  Rng rng(2024);
  for (int trial = 0; trial < 1000; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(23));  // up to 24
    std::int64_t len = rng.next_in(0, 400);
    if (trial % 7 == 0) len = 64 * rng.next_in(0, 4);   // word-aligned
    if (trial % 11 == 0) len = 63 + rng.next_in(0, 3);  // straddling
    const Schedule s = random_schedule(rng, n, len);
    const ProcSet p = random_set(rng, n);
    const ProcSet q = random_set(rng, n);
    EXPECT_EQ(min_timeliness_bound(s, p, q),
              min_timeliness_bound_reference(s, p, q))
        << "n=" << n << " len=" << len << " p=" << p.to_string()
        << " q=" << q.to_string();
    if (len > 0) {
      const std::int64_t from = rng.next_in(0, len);
      const std::int64_t to = rng.next_in(from, len);
      EXPECT_EQ(min_timeliness_bound(s, p, q, from, to),
                min_timeliness_bound_reference(s, p, q, from, to))
          << "n=" << n << " len=" << len << " [" << from << "," << to
          << ")";
    }
  }
}

TEST(PackedEquivalenceTest, PackedBoundForMatchesReference) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(10));
    const Schedule s = random_schedule(rng, n, rng.next_in(0, 700));
    const PackedSchedule packed(s);
    EXPECT_EQ(packed.n(), n);
    EXPECT_EQ(packed.size(), s.size());
    for (int inner = 0; inner < 8; ++inner) {
      const ProcSet p = random_set(rng, n);
      const ProcSet q = random_set(rng, n);
      EXPECT_EQ(packed.bound_for(p, q),
                min_timeliness_bound_reference(s, p, q));
    }
  }
}

TEST(PackedScheduleTest, ColumnsPartitionTheTimeline) {
  Rng rng(5);
  const Schedule s = random_schedule(rng, 6, 500);
  const PackedSchedule packed(s);
  // Each step sets exactly one column bit; the OR of all columns is
  // the all-steps timeline.
  std::vector<std::uint64_t> all;
  packed.or_columns(ProcSet::universe(6), all);
  for (std::int64_t t = 0; t < s.size(); ++t) {
    for (Pid p = 0; p < 6; ++p) {
      const bool bit =
          (packed.column(p)[t / kBitsPerWord] >> (t % kBitsPerWord)) & 1;
      EXPECT_EQ(bit, s[t] == p);
    }
    EXPECT_TRUE((all[static_cast<std::size_t>(t / kBitsPerWord)] >>
                 (t % kBitsPerWord)) &
                1);
  }
  // Bits past size() stay zero (the window scan relies on it).
  if (s.size() % kBitsPerWord != 0) {
    EXPECT_EQ(all.back() & ~low_word_mask(static_cast<int>(
                               s.size() % kBitsPerWord)),
              0u);
  }
}

// Column-for-column equality, stale words included: every word of
// every column must match.
void expect_same_columns(const PackedSchedule& got,
                         const PackedSchedule& want, const std::string& what) {
  ASSERT_EQ(got.n(), want.n()) << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  ASSERT_EQ(got.words(), want.words()) << what;
  for (Pid p = 0; p < want.n(); ++p) {
    for (std::int64_t w = 0; w < want.words(); ++w) {
      ASSERT_EQ(got.column(p)[w], want.column(p)[w])
          << what << " pid " << p << " word " << w;
    }
  }
}

// Both census families: the enforced witness and the i-subset starver.
std::unique_ptr<ScheduleGenerator> census_generator(bool enforced) {
  if (enforced) {
    return EnforcedGenerator::single(
        std::make_unique<UniformRandomGenerator>(24, 11),
        TimelinessConstraint(ProcSet::range(0, 2), ProcSet::range(0, 23),
                             3));
  }
  return std::make_unique<KSubsetStarverGenerator>(
      24, ProcSet::universe(24), 2, 64);
}

TEST(PackedScheduleTest, GeneratorFedMatchesMaterialized) {
  for (const bool enforced : {true, false}) {
    for (const std::int64_t len : {0, 1, 63, 64, 65, 40'001}) {
      const std::string what = std::string(enforced ? "enforced" : "starver") +
                               " len " + std::to_string(len);
      auto fed = census_generator(enforced);
      auto materialized = census_generator(enforced);
      const PackedSchedule got(*fed, len);
      const PackedSchedule want(generate(*materialized, len));
      expect_same_columns(got, want, what);
      // The packer pulled exactly `len` steps.
      EXPECT_EQ(fed->next(), materialized->next()) << what;
    }
  }
}

TEST(PackedScheduleTest, RepackOverwritesRecycledWords) {
  Rng rng(23);
  PackedSchedule heap;
  util::ArenaAllocator arena;
  PackedSchedule on_arena(random_schedule(rng, 5, 10), arena);
  for (const std::int64_t len : {40'001, 65, 0, 130, 64, 1'000}) {
    for (const int n : {7, 3}) {
      const Schedule s = random_schedule(rng, n, len);
      heap.repack(s);
      on_arena.repack(s);
      const PackedSchedule fresh(s);
      const std::string what =
          "n " + std::to_string(n) + " len " + std::to_string(len);
      expect_same_columns(heap, fresh, "heap " + what);
      expect_same_columns(on_arena, fresh, "arena " + what);
    }
  }
}

TEST(PackedScheduleTest, GeneratorFedRejectsOutOfRangePids) {
  // A generator claiming n = 3 but emitting pid 4.
  class Liar final : public ScheduleGenerator {
   public:
    int n() const override { return 3; }
    Pid next() override { return 4; }
  };
  Liar liar;
  EXPECT_THROW(PackedSchedule(liar, 10), ContractViolation);
}

TEST(BoundTrackerTest, ExtendMatchesRecomputeAtEveryCut) {
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(8));
    const Schedule s = random_schedule(rng, n, 600);
    const ProcSet p = random_set(rng, n);
    const ProcSet q = random_set(rng, n);
    BoundTracker tracker(p, q);
    std::int64_t cut = 0;
    while (cut < s.size()) {
      // Random Δ, including 0 (no-op) and word-straddling jumps.
      cut = std::min<std::int64_t>(s.size(), cut + rng.next_in(0, 130));
      tracker.extend(s, cut);
      EXPECT_EQ(tracker.position(), cut);
      EXPECT_EQ(tracker.bound(),
                min_timeliness_bound_reference(s, p, q, 0, cut))
          << "trial=" << trial << " cut=" << cut;
    }
  }
}

TEST(BoundTrackerTest, ChunkingIsIrrelevant) {
  // Two trackers fed the same steps through different chunkings (and
  // one step at a time) agree at every shared position: the state is a
  // function of the consumed prefix only.
  Rng rng(3);
  const Schedule s = random_schedule(rng, 5, 500);
  const ProcSet p = ProcSet::of({0, 2});
  const ProcSet q = ProcSet::of({1, 3, 4});
  BoundTracker word_fed(p, q);
  BoundTracker step_fed(p, q);
  std::int64_t cut = 0;
  while (cut < s.size()) {
    cut = std::min<std::int64_t>(s.size(), cut + rng.next_in(1, 97));
    word_fed.extend(s, cut);
    while (step_fed.position() < cut) {
      step_fed.step(s[step_fed.position()]);
    }
    EXPECT_EQ(word_fed.bound(), step_fed.bound());
  }
  EXPECT_EQ(word_fed.bound(), min_timeliness_bound_reference(s, p, q));
}

TEST(BoundTrackerTest, BoundSeriesUsesOnePass) {
  Rng rng(17);
  const Schedule s = random_schedule(rng, 4, 800);
  const ProcSet p = ProcSet::of(0);
  const ProcSet q = ProcSet::of({1, 2, 3});
  std::vector<std::int64_t> cuts;
  for (std::int64_t c = 0; c <= 800; c += 37) cuts.push_back(c);
  const auto series = bound_series(s, p, q, cuts);
  ASSERT_EQ(series.size(), cuts.size());
  for (std::size_t idx = 0; idx < cuts.size(); ++idx) {
    EXPECT_EQ(series[idx],
              min_timeliness_bound_reference(s, p, q, 0, cuts[idx]));
  }
  // Out-of-order cuts take the per-cut fallback; results must agree.
  std::vector<std::int64_t> shuffled = cuts;
  std::reverse(shuffled.begin(), shuffled.end());
  const auto reversed = bound_series(s, p, q, shuffled);
  for (std::size_t idx = 0; idx < cuts.size(); ++idx) {
    EXPECT_EQ(reversed[idx], series[cuts.size() - 1 - idx]);
  }
}

// The pre-RankedPairScan exhaustive nested loops, kept here as the
// oracle for enumeration order and tie-breaks.
TimelyPair best_pair_oracle(const Schedule& s, int i, int j) {
  TimelyPair best{ProcSet(), ProcSet(),
                  std::numeric_limits<std::int64_t>::max()};
  for (ProcSet p : k_subsets(s.n(), i)) {
    for (ProcSet q : k_subsets(s.n(), j)) {
      const std::int64_t b = min_timeliness_bound_reference(s, p, q);
      if (b < best.bound) best = TimelyPair{p, q, b};
    }
  }
  return best;
}

// The 5,000-step trials outgrow 4,096 steps (64 words), so the scan's
// observer chunks grow from one word to their full 64-word size.
TEST(RankedPairScanTest, BestPairMatchesExhaustiveOracle) {
  Rng rng(41);
  for (int trial = 0; trial < 14; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(4));  // 3..6
    const Schedule s = random_schedule(rng, n, trial < 12 ? 400 : 5'000);
    const PackedSchedule packed(s);
    for (int i = 1; i <= n; ++i) {
      for (int j = 1; j <= n; ++j) {
        const TimelyPair expected = best_pair_oracle(s, i, j);
        const TimelyPair got = RankedPairScan(packed, i, j).best_pair();
        EXPECT_EQ(got.timely_set, expected.timely_set);
        EXPECT_EQ(got.observed_set, expected.observed_set);
        EXPECT_EQ(got.bound, expected.bound);
      }
    }
  }
}

TEST(RankedPairScanTest, WitnessMatchesFirstInEnumerationOrder) {
  Rng rng(43);
  for (int trial = 0; trial < 24; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(4));
    const Schedule s = random_schedule(rng, n, trial < 20 ? 300 : 5'000);
    const PackedSchedule packed(s);
    const int i = 1 + static_cast<int>(rng.next_below(
                          static_cast<std::uint64_t>(n)));
    const int j = 1 + static_cast<int>(rng.next_below(
                          static_cast<std::uint64_t>(n)));
    const std::int64_t cap = rng.next_in(1, 6);
    // Oracle: first pair in k_subsets order at or under the cap.
    std::optional<TimelyPair> expected;
    for (ProcSet p : k_subsets(n, i)) {
      for (ProcSet q : k_subsets(n, j)) {
        const std::int64_t b = min_timeliness_bound_reference(s, p, q);
        if (b <= cap) {
          expected = TimelyPair{p, q, b};
          break;
        }
      }
      if (expected) break;
    }
    const auto got = RankedPairScan(packed, i, j).find_witness(cap);
    ASSERT_EQ(got.has_value(), expected.has_value());
    if (got) {
      EXPECT_EQ(got->timely_set, expected->timely_set);
      EXPECT_EQ(got->observed_set, expected->observed_set);
      EXPECT_EQ(got->bound, expected->bound);
    }
  }
}

// count_members against the reference scan of every pair. The sizes
// cover small observer sets (2j <= n: Q's columns are OR'd) and large
// ones (2j > n: the complement's columns are OR'd and inverted); the
// lengths cover a one-step schedule, the last-word tail mask on either
// side of a word boundary, and 9,000 steps (141 words), which runs
// through every chunk size from 1 to 64 words. Both kernel tables must
// give the reference's counts and first member.
TEST(RankedPairScanTest, CountMembersMatchesExhaustiveOracle) {
  struct Case {
    Schedule s;
    int i;
    int j;
    std::vector<std::int64_t> bounds;  // reference, in enumeration order
  };
  std::vector<Case> cases;
  Rng rng(53);
  for (int n = 4; n <= 9; ++n) {
    for (const std::int64_t len : {1, 63, 64, 65, 1000, 9000}) {
      const Schedule s = random_schedule(rng, n, len);
      for (const int i : {1, n - 1}) {
        for (const int j : {1, n / 2, n / 2 + 1, n}) {
          Case c{s, i, j, {}};
          for (ProcSet p : k_subsets(n, i)) {
            for (ProcSet q : k_subsets(n, j)) {
              c.bounds.push_back(min_timeliness_bound_reference(s, p, q));
            }
          }
          cases.push_back(std::move(c));
        }
      }
    }
  }
  const auto check_all = [&cases](const char* table) {
    for (const Case& c : cases) {
      const PackedSchedule packed(c.s);
      const RankedPairScan scan(packed, c.i, c.j);
      const std::vector<ProcSet> ps = k_subsets(c.s.n(), c.i);
      const std::vector<ProcSet> qs = k_subsets(c.s.n(), c.j);
      for (std::int64_t cap = 1; cap <= 4; ++cap) {
        RankedPairScan::MemberCount want;
        for (std::size_t k = 0; k < c.bounds.size(); ++k) {
          ++want.pairs;
          if (c.bounds[k] > cap) continue;
          ++want.members;
          if (!want.first) {
            want.first = TimelyPair{ps[k / qs.size()], qs[k % qs.size()],
                                    c.bounds[k]};
          }
        }
        const auto got = scan.count_members(cap);
        const std::string where =
            std::string(table) + " n " + std::to_string(c.s.n()) +
            " len " + std::to_string(c.s.size()) + " i " +
            std::to_string(c.i) + " j " + std::to_string(c.j) + " cap " +
            std::to_string(cap);
        ASSERT_EQ(got.pairs, want.pairs) << where;
        ASSERT_EQ(got.members, want.members) << where;
        ASSERT_EQ(got.first.has_value(), want.first.has_value()) << where;
        if (got.first) {
          EXPECT_EQ(got.first->timely_set, want.first->timely_set) << where;
          EXPECT_EQ(got.first->observed_set, want.first->observed_set)
              << where;
          EXPECT_EQ(got.first->bound, want.first->bound) << where;
        }
      }
    }
  };
  {
    // Restores the dispatched table even when an assertion returns.
    struct ForceScalar {
      ForceScalar() { simd::set_kernels_for_testing(&simd::scalar_kernels()); }
      ~ForceScalar() { simd::set_kernels_for_testing(nullptr); }
    } force_scalar;
    check_all("scalar");
  }
  check_all(simd::active_kernels().name);
}

TEST(RankedPairScanTest, RangeSplitsCompose) {
  Rng rng(47);
  const int n = 6;
  const Schedule s = random_schedule(rng, n, 500);
  const PackedSchedule packed(s);
  const RankedPairScan scan(packed, 2, 3);
  const std::int64_t total = scan.p_count();
  ASSERT_EQ(total, 15);
  const auto full = scan.count_members(3);
  for (const std::int64_t split : {std::int64_t{0}, std::int64_t{4},
                                   std::int64_t{7}, total}) {
    const auto lo = scan.count_members(3, 0, split);
    const auto hi = scan.count_members(3, split, total);
    EXPECT_EQ(lo.pairs + hi.pairs, full.pairs);
    EXPECT_EQ(lo.members + hi.members, full.members);
    const auto& first = lo.first ? lo.first : hi.first;
    ASSERT_EQ(first.has_value(), full.first.has_value());
    if (full.first) {
      EXPECT_EQ(first->timely_set, full.first->timely_set);
      EXPECT_EQ(first->observed_set, full.first->observed_set);
      EXPECT_EQ(first->bound, full.first->bound);
    }
  }
}

TEST(RankedPairScanTest, LargeNWitnessSmoke) {
  // n = 24: an enforced witness must be found at its bound; the
  // i-subset starver must leave no witness under a small cap. This is
  // the large-n path the fig2 bench sweeps, kept small enough for the
  // ASan job.
  const int n = 24;
  auto enforced = EnforcedGenerator::single(
      std::make_unique<UniformRandomGenerator>(n, 11),
      TimelinessConstraint(ProcSet::range(0, 2), ProcSet::range(0, 23),
                           3));
  const Schedule good = generate(*enforced, 20'000);
  const SystemMembership membership(good);
  const auto witness = membership.find_witness(2, 23, 3);
  ASSERT_TRUE(witness.has_value());
  EXPECT_LE(witness->bound, 3);
  EXPECT_EQ(min_timeliness_bound_reference(good, witness->timely_set,
                                           witness->observed_set),
            witness->bound);

  KSubsetStarverGenerator starver(n, ProcSet::universe(n), 2, 64);
  const Schedule bad = generate(starver, 20'000);
  const PackedSchedule packed(bad);
  // Every 2-set is starved for stretches far beyond the cap, so the
  // exhaustive C(24,2) x C(24,23) census finds nothing.
  const auto census = RankedPairScan(packed, 2, 23).count_members(3);
  EXPECT_EQ(census.pairs, 276 * 24);
  EXPECT_EQ(census.members, 0);
}

}  // namespace
}  // namespace setlib::sched
