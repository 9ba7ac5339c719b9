#include "src/util/procset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

namespace setlib {
namespace {

TEST(ProcSetTest, EmptyAndUniverse) {
  const ProcSet empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0);

  const ProcSet u = ProcSet::universe(5);
  EXPECT_EQ(u.size(), 5);
  for (Pid p = 0; p < 5; ++p) EXPECT_TRUE(u.contains(p));
  EXPECT_FALSE(u.contains(5));
}

TEST(ProcSetTest, OfAndWithWithout) {
  ProcSet s = ProcSet::of({1, 3, 3, 5});
  EXPECT_EQ(s.size(), 3);
  EXPECT_TRUE(s.contains(1));
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(2));

  s = s.with(2).without(3);
  EXPECT_TRUE(s.contains(2));
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.size(), 3);
}

TEST(ProcSetTest, RangeMinMaxNth) {
  const ProcSet s = ProcSet::range(2, 6);  // {2,3,4,5}
  EXPECT_EQ(s.size(), 4);
  EXPECT_EQ(s.min(), 2);
  EXPECT_EQ(s.max(), 5);
  EXPECT_EQ(s.nth(0), 2);
  EXPECT_EQ(s.nth(1), 3);
  EXPECT_EQ(s.nth(3), 5);
}

TEST(ProcSetTest, NthThrowsOutOfRange) {
  const ProcSet s = ProcSet::of({0, 2});
  EXPECT_THROW(s.nth(2), ContractViolation);
  EXPECT_THROW(ProcSet().min(), ContractViolation);
}

TEST(ProcSetTest, SetAlgebra) {
  const ProcSet a = ProcSet::of({0, 1, 2});
  const ProcSet b = ProcSet::of({2, 3});
  EXPECT_EQ((a | b), ProcSet::of({0, 1, 2, 3}));
  EXPECT_EQ((a & b), ProcSet::of({2}));
  EXPECT_EQ((a - b), ProcSet::of({0, 1}));
  EXPECT_TRUE(ProcSet::of({0, 1}).subset_of(a));
  EXPECT_FALSE(a.subset_of(b));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(ProcSet::of({0}).intersects(ProcSet::of({1})));
}

TEST(ProcSetTest, ComplementWithinUniverse) {
  const ProcSet s = ProcSet::of({0, 2});
  EXPECT_EQ(s.complement(4), ProcSet::of({1, 3}));
  EXPECT_EQ(ProcSet().complement(3), ProcSet::universe(3));
}

TEST(ProcSetTest, ToVectorSortedAscending) {
  const ProcSet s = ProcSet::of({7, 1, 4});
  const std::vector<Pid> v = s.to_vector();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 4);
  EXPECT_EQ(v[2], 7);
}

TEST(ProcSetTest, Printing) {
  EXPECT_EQ(ProcSet::of({0, 2, 5}).to_string(), "{0,2,5}");
  EXPECT_EQ(ProcSet().to_string(), "{}");
}

TEST(BinomialTest, SmallValues) {
  EXPECT_EQ(binomial(0, 0), 1);
  EXPECT_EQ(binomial(5, 0), 1);
  EXPECT_EQ(binomial(5, 5), 1);
  EXPECT_EQ(binomial(5, 2), 10);
  EXPECT_EQ(binomial(10, 3), 120);
  EXPECT_EQ(binomial(3, 5), 0);
  EXPECT_EQ(binomial(52, 5), 2598960);
}

TEST(BinomialTest, PascalIdentity) {
  for (int n = 1; n <= 20; ++n) {
    for (int k = 1; k <= n; ++k) {
      EXPECT_EQ(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(KSubsetsTest, EnumeratesAllDistinctSubsets) {
  const auto subsets = k_subsets(6, 3);
  EXPECT_EQ(static_cast<std::int64_t>(subsets.size()), binomial(6, 3));
  std::set<std::uint64_t> seen;
  for (const ProcSet s : subsets) {
    EXPECT_EQ(s.size(), 3);
    EXPECT_TRUE(s.subset_of(ProcSet::universe(6)));
    seen.insert(s.mask());
  }
  EXPECT_EQ(seen.size(), subsets.size());
}

TEST(KSubsetsTest, EdgeCases) {
  EXPECT_EQ(k_subsets(4, 0).size(), 1u);  // the empty set
  EXPECT_TRUE(k_subsets(4, 0)[0].empty());
  const auto full = k_subsets(4, 4);
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0], ProcSet::universe(4));
}

class SubsetRankerParamTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SubsetRankerParamTest, RankUnrankBijection) {
  const auto [n, k] = GetParam();
  SubsetRanker ranker(n, k);
  EXPECT_EQ(ranker.count(), binomial(n, k));
  std::set<std::uint64_t> seen;
  for (std::int64_t r = 0; r < ranker.count(); ++r) {
    const ProcSet s = ranker.unrank(r);
    EXPECT_EQ(s.size(), k);
    EXPECT_EQ(ranker.rank(s), r);
    seen.insert(s.mask());
  }
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), ranker.count());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SubsetRankerParamTest,
    ::testing::Values(std::pair{1, 1}, std::pair{4, 1}, std::pair{4, 2},
                      std::pair{5, 3}, std::pair{6, 3}, std::pair{8, 4},
                      std::pair{10, 2}, std::pair{10, 5}, std::pair{12, 6}));

TEST(SubsetRankerTest, UnrankOrderIsMonotone) {
  // The combinadic order coincides with ascending mask order for the
  // rank enumeration used by k_subsets.
  SubsetRanker ranker(7, 3);
  for (std::int64_t r = 1; r < ranker.count(); ++r) {
    EXPECT_LT(ranker.unrank(r - 1).mask(), ranker.unrank(r).mask());
  }
}

// next_colex is the successor of SubsetRanker's rank order, so rank
// loops can step instead of unranking. Past the last rank it leaves
// the universe.
TEST(SubsetRankerTest, ColexSuccessorIsNextRank) {
  const auto check = [](int n, int k, std::int64_t max_ranks) {
    const SubsetRanker ranker(n, k);
    const std::int64_t ranks = std::min(ranker.count(), max_ranks);
    ProcSet s = ranker.unrank(0);
    EXPECT_EQ(s, ProcSet::range(0, k));
    for (std::int64_t r = 0; r + 1 < ranks; ++r) {
      const ProcSet next = next_colex(s);
      ASSERT_EQ(next, ranker.unrank(r + 1))
          << "n " << n << " k " << k << " rank " << r;
      s = next;
    }
    if (ranks == ranker.count()) {
      EXPECT_FALSE(next_colex(s).subset_of(ProcSet::universe(n)))
          << "n " << n << " k " << k;
    }
  };
  for (int n = 1; n <= 12; ++n) {
    for (int k = 1; k <= n; ++k) check(n, k, INT64_MAX);
  }
  for (const int k : {1, 2, 22, 23}) check(24, k, INT64_MAX);
  for (const int k : {1, 31, 62}) check(63, k, 10'000);
}

// The shared C(i, j) table behind every ranker agrees with the
// multiplicative formula over the whole supported range, C(63, 31)
// included.
TEST(SubsetRankerTest, CountIsBinomial) {
  for (int n = 0; n <= kMaxProcs; ++n) {
    for (int k = 0; k <= n; ++k) {
      ASSERT_EQ(SubsetRanker(n, k).count(), binomial(n, k))
          << "n " << n << " k " << k;
    }
  }
  EXPECT_EQ(binomial(63, 31), 916312070471295267);
}

TEST(SubsetRankerTest, RejectsWrongSizeSet) {
  SubsetRanker ranker(5, 2);
  EXPECT_THROW(ranker.rank(ProcSet::of({0, 1, 2})), ContractViolation);
  EXPECT_THROW(ranker.unrank(ranker.count()), ContractViolation);
}

}  // namespace
}  // namespace setlib
