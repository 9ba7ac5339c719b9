// The window walk's contract (src/sched/simd.h): the dispatched walk
// gives the same pruned flag and the same WalkState as a per-word
// walk_word loop, and the packed paths built on it match
// min_timeliness_bound_reference. Pinned by a direct walk differential
// over random word arrays (lengths 1-130, sparse and dense P words), a
// 1000-schedule randomized differential of the packed bound paths over
// random [from, to) windows, the best pair and a large-n census
// against the reference scan of every pair, arena-backed vs
// heap-backed scans, and repack vs a fresh pack.
#include "src/sched/simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "src/sched/analyzer.h"
#include "src/sched/generators.h"
#include "src/sched/schedule.h"
#include "src/util/arena.h"
#include "src/util/rng.h"

namespace setlib::sched {
namespace {

std::vector<std::uint64_t> random_words(Rng& rng, std::int64_t count,
                                        int p_density_shift) {
  // AND-ing k draws thins the bit density by 2^-k: window walks behave
  // very differently on sparse vs dense P words, so both get coverage.
  std::vector<std::uint64_t> out(static_cast<std::size_t>(count));
  for (auto& w : out) {
    w = std::numeric_limits<std::uint64_t>::max();
    for (int k = 0; k <= p_density_shift; ++k) w &= rng.next_u64();
  }
  return out;
}

TEST(SimdKernelTest, WindowWalkMatchesScalarBitForBit) {
  // The dispatched walk against a per-word walk_word loop that checks
  // the prune after each word: same pruned flag, same state when the
  // walk completes.
  const simd::Kernels& active = simd::active_kernels();
#if defined(__x86_64__)
  if (__builtin_cpu_supports("popcnt")) {
    EXPECT_STREQ(active.name, "popcnt");
  }
#endif
  Rng rng(4096);
  for (int trial = 0; trial < 800; ++trial) {
    const std::int64_t words = 1 + static_cast<std::int64_t>(
                                       rng.next_in(0, 129));
    // Sparse and dense P words take different branches of walk_word.
    const int density = static_cast<int>(rng.next_in(0, 6));
    const auto p = random_words(rng, words, density);
    const auto q = random_words(rng, words, 1);
    const std::int64_t prune_q =
        trial % 2 == 0 ? std::numeric_limits<std::int64_t>::max()
                       : static_cast<std::int64_t>(rng.next_in(1, 200));
    simd::WalkState want;
    bool want_pruned = false;
    for (std::int64_t w = 0; w < words && !want_pruned; ++w) {
      simd::walk_word(p[static_cast<std::size_t>(w)],
                      q[static_cast<std::size_t>(w)], want);
      want_pruned = want.max_q >= prune_q;
    }
    simd::WalkState got;
    const bool pruned =
        active.window_walk(p.data(), q.data(), words, prune_q, &got);
    EXPECT_EQ(pruned, want_pruned)
        << "trial " << trial << " prune_q=" << prune_q;
    EXPECT_EQ(got.max_q, want.max_q) << "trial " << trial;
    EXPECT_EQ(got.current, want.current) << "trial " << trial;
  }
}

TEST(SimdDifferentialTest, ThousandRandomSchedulesMatchTheReference) {
  // The randomized differential: packed bound == reference bound on
  // 1000 random (schedule, P, Q, [from, to)) instances.
  Rng rng(20260808);
  for (int trial = 0; trial < 1000; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_in(0, 4));  // 2..6
    const std::int64_t len =
        1 + static_cast<std::int64_t>(rng.next_in(0, 1999));
    UniformRandomGenerator gen(n, rng.next_u64());
    const Schedule s = generate(gen, len);
    const ProcSet p(rng.next_in(1, (1u << n) - 1));
    const ProcSet q(rng.next_in(1, (1u << n) - 1));
    const std::int64_t from =
        static_cast<std::int64_t>(rng.next_in(0, static_cast<std::uint64_t>(len)));
    const std::int64_t to =
        from + static_cast<std::int64_t>(
                   rng.next_in(0, static_cast<std::uint64_t>(len - from)));
    const std::int64_t reference =
        min_timeliness_bound_reference(s, p, q, from, to);
    EXPECT_EQ(min_timeliness_bound(s, p, q, from, to), reference)
        << "trial " << trial;
  }
}

/// Reference best bound: the executable-spec analyzer over every
/// (|P| = i, |Q| = j) pair, mirroring RankedPairScan's pair space.
std::int64_t reference_best_bound(const Schedule& s, int i, int j) {
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (const ProcSet p : k_subsets(s.n(), i)) {
    for (const ProcSet q : k_subsets(s.n(), j)) {
      best = std::min(best, min_timeliness_bound_reference(s, p, q));
    }
  }
  return best;
}

TEST(SimdDifferentialTest, RankedScanAgreesAcrossTablesAndReference) {
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_in(0, 2));  // 3..5
    const std::int64_t len =
        64 + static_cast<std::int64_t>(rng.next_in(0, 4999));
    const int i = 1 + static_cast<int>(rng.next_in(0, static_cast<std::uint64_t>(n - 2)));
    const int j =
        i + 1 + static_cast<int>(rng.next_in(0, static_cast<std::uint64_t>(n - i - 1)));
    UniformRandomGenerator gen(n, rng.next_u64());
    const Schedule s = generate(gen, len);
    const PackedSchedule packed(s);

    const TimelyPair best = RankedPairScan(packed, i, j).best_pair();
    EXPECT_EQ(best.bound, reference_best_bound(s, i, j))
        << "trial " << trial;
    EXPECT_EQ(min_timeliness_bound_reference(s, best.timely_set,
                                             best.observed_set),
              best.bound);
  }
}

TEST(SimdDifferentialTest, ArenaBackedScanMatchesHeapBackedScan) {
  Rng rng(5150);
  util::ArenaAllocator arena;
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 4;
    const std::int64_t len =
        64 + static_cast<std::int64_t>(rng.next_in(0, 9999));
    UniformRandomGenerator gen(n, rng.next_u64());
    const Schedule s = generate(gen, len);
    const util::FrameScope frame(arena);
    const PackedSchedule packed(s);
    const std::int64_t cap = 1 + static_cast<std::int64_t>(rng.next_in(0, 6));
    const auto with_arena =
        RankedPairScan(packed, 2, 3, &arena).count_members(cap);
    const auto on_heap = RankedPairScan(packed, 2, 3).count_members(cap);
    EXPECT_EQ(with_arena.pairs, on_heap.pairs) << "trial " << trial;
    EXPECT_EQ(with_arena.members, on_heap.members) << "trial " << trial;
    EXPECT_EQ(with_arena.first.has_value(), on_heap.first.has_value());
    if (with_arena.first && on_heap.first) {
      EXPECT_EQ(with_arena.first->bound, on_heap.first->bound);
      EXPECT_EQ(with_arena.first->timely_set.mask(),
                on_heap.first->timely_set.mask());
    }
  }
}

TEST(SimdDifferentialTest, RepackMatchesFreshPack) {
  Rng rng(31337);
  PackedSchedule scratch;
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_in(0, 4));
    const std::int64_t len =
        1 + static_cast<std::int64_t>(rng.next_in(0, 2999));
    UniformRandomGenerator gen(n, rng.next_u64());
    const Schedule s = generate(gen, len);
    scratch.repack(s);  // recycled storage, shrinking and growing
    const PackedSchedule fresh(s);
    ASSERT_EQ(scratch.n(), fresh.n());
    ASSERT_EQ(scratch.size(), fresh.size());
    ASSERT_EQ(scratch.words(), fresh.words());
    for (Pid p = 0; p < n; ++p) {
      for (std::int64_t w = 0; w < fresh.words(); ++w) {
        ASSERT_EQ(scratch.column(p)[w], fresh.column(p)[w])
            << "trial " << trial << " p=" << p << " w=" << w;
      }
    }
  }
}

TEST(SimdDifferentialTest, LargeNCensusSmoke) {
  // n = 28 membership census: C(28,2) * C(28,27) = 10584 pairs over a
  // packed prefix — the large-n shape the fig2 bench sweeps, kept
  // small here. The member count and the earliest member must match
  // the reference scan of every pair.
  const int n = 28;
  UniformRandomGenerator gen(n, 11);
  const Schedule s = generate(gen, 4096);
  const PackedSchedule packed(s);
  const RankedPairScan scan(packed, 2, n - 1);
  ASSERT_EQ(scan.p_count(), 378);
  ASSERT_EQ(scan.q_count(), 28);
  std::vector<TimelyPair> pairs;  // reference bounds, in rank order
  for (const ProcSet p : k_subsets(n, 2)) {
    for (const ProcSet q : k_subsets(n, n - 1)) {
      pairs.push_back({p, q, min_timeliness_bound_reference(s, p, q)});
    }
  }
  // Cap 3 admits no pair; cap 60 admits 646 of the 10,584.
  for (const std::int64_t cap : {std::int64_t{3}, std::int64_t{60}}) {
    std::int64_t members = 0;
    std::optional<TimelyPair> first;
    for (const TimelyPair& pair : pairs) {
      if (pair.bound > cap) continue;
      ++members;
      if (!first) first = pair;
    }
    const auto got = scan.count_members(cap);
    EXPECT_EQ(got.pairs, 378 * 28) << "cap " << cap;
    EXPECT_EQ(got.members, members) << "cap " << cap;
    ASSERT_EQ(got.first.has_value(), first.has_value()) << "cap " << cap;
    if (first) {
      EXPECT_EQ(got.first->timely_set, first->timely_set);
      EXPECT_EQ(got.first->observed_set, first->observed_set);
      EXPECT_EQ(got.first->bound, first->bound);
    }
  }
}

}  // namespace
}  // namespace setlib::sched
