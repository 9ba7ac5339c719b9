#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/util/assert.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace setlib {
namespace {

TEST(AssertTest, ViolationCarriesLocation) {
  try {
    SETLIB_EXPECTS(1 == 2);
    FAIL() << "expected throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_THROW(rng.next_below(0), ContractViolation);
}

// The power-of-two fast path must draw exactly what the rejection
// formula draws, so every generator's stream is unchanged.
TEST(RngTest, NextBelowPowerOfTwoMatchesRejection) {
  auto rejection = [](Rng& rng, std::uint64_t bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = rng.next_u64();
      if (r >= threshold) return r % bound;
    }
  };
  std::vector<std::uint64_t> bounds = {3, 5, 24};
  for (int shift = 0; shift <= 62; ++shift) {
    bounds.push_back(std::uint64_t{1} << shift);
  }
  for (const std::uint64_t bound : bounds) {
    Rng fast(0xfeed + bound);
    Rng reference = fast;
    for (int i = 0; i < 256; ++i) {
      ASSERT_EQ(fast.next_below(bound), rejection(reference, bound))
          << "bound " << bound << " draw " << i;
    }
    EXPECT_EQ(fast.next_u64(), reference.next_u64()) << "bound " << bound;
  }
}

// A FixedBound draw is next_below's draw with the divisions hoisted:
// the same value and the same number of consumed words, rejections
// included (2^63 + 1 rejects about half of all words).
TEST(RngTest, FixedBoundMatchesNextBelow) {
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 1; b <= 64; ++b) bounds.push_back(b);
  for (const std::uint64_t b :
       {std::uint64_t{1000003}, (std::uint64_t{1} << 32) - 1,
        (std::uint64_t{1} << 32) + 1, std::uint64_t{1} << 62,
        (std::uint64_t{1} << 63) + 1}) {
    bounds.push_back(b);
  }
  for (const std::uint64_t bound : bounds) {
    const FixedBound fixed(bound);
    EXPECT_EQ(fixed.bound(), bound);
    Rng fast(0xb0b + bound);
    Rng reference = fast;
    for (int i = 0; i < 100'000; ++i) {
      const std::uint64_t got = fast.next_below(fixed);
      const std::uint64_t want = reference.next_below(bound);
      if (got != want) {
        FAIL() << "bound " << bound << " draw " << i << ": " << got
               << " != " << want;
      }
    }
    EXPECT_EQ(fast.next_u64(), reference.next_u64()) << "bound " << bound;
  }
  EXPECT_THROW(FixedBound(0), ContractViolation);
}

TEST(RngTest, NextInInclusiveBounds) {
  Rng rng(9);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 20'000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, UniformityRoughCheck) {
  Rng rng(11);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80'000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.next_below(kBuckets)];
  }
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kSamples / kBuckets, kSamples / kBuckets / 5);
  }
}

TEST(RngTest, WeightedPick) {
  Rng rng(13);
  int hits[3] = {};
  for (int i = 0; i < 30'000; ++i) {
    ++hits[rng.next_weighted({1.0, 0.0, 3.0})];
  }
  EXPECT_EQ(hits[1], 0);
  EXPECT_GT(hits[2], 2 * hits[0]);
  EXPECT_GT(hits[0], 0);
}

TEST(RngTest, ForkDiverges) {
  Rng a(5);
  Rng b = a.fork();
  bool differ = false;
  for (int i = 0; i < 16; ++i) {
    if (a.next_u64() != b.next_u64()) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(17);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(1.25), 1e-12);
}

TEST(SummaryTest, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.median(), 50.0);
}

TEST(SummaryTest, EmptyThrows) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), ContractViolation);
  EXPECT_THROW(s.percentile(50), ContractViolation);
}

TEST(TextTableTest, RendersAlignedRows) {
  TextTable t({"name", "value"});
  t.row().cell("alpha").cell(42);
  t.row().cell("b").cell("longer-content");
  const std::string out = t.render();
  EXPECT_NE(out.find("| name  | value          |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 42             |"), std::string::npos);
  EXPECT_NE(out.find("| b     | longer-content |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTableTest, RejectsTooManyCells) {
  TextTable t({"only"});
  t.row().cell("x");
  EXPECT_THROW(t.cell("y"), ContractViolation);
}

TEST(TextTableTest, CellBeforeRowThrows) {
  TextTable t({"h"});
  EXPECT_THROW(t.cell("x"), ContractViolation);
}

}  // namespace
}  // namespace setlib
