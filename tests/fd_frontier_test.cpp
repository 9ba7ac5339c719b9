// The theory-frontier tests: detector behaviour on the adversarial
// schedule families tracks Theorem 27's solvability condition exactly.
//
// Family A (gap rotisserie, i <= k cells): j - i processes crash at
// step 0; the live processes take turns stepping solo in growing
// bursts. Counter[A, *] has (j-i) + k frozen entries for a fully-live
// k-set A (the crashed zeros plus A's own members), so accusation[A]
// freezes iff (j-i) + k >= t+1 — Theorem 27's j - i >= t+1-k.
//
// Family B (k-subset starver, i > k cells): no crashes; starvation
// rotates over every k-subset with growing phases. Every k-set's
// accusation diverges (n - k >= n - t divergent entries), so no
// winnerset can ever settle and the abstract property fails.
#include <gtest/gtest.h>

#include <ostream>

#include "src/fd/kantiomega.h"
#include "src/fd/property.h"
#include "src/sched/analyzer.h"
#include "src/sched/generators.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"

namespace setlib::fd {
namespace {

struct FrontierParams {
  int n;
  int k;
  int t;
  int gap;  // j - i
  bool expect_stable;
};

// gtest prints GetParam() with PrintTo, and gtest_discover_tests names
// each ctest case by that printout: without it, the case name is a raw
// byte dump of the struct (padding bytes included).
void PrintTo(const FrontierParams& p, std::ostream* os) {
  *os << "n" << p.n << "_k" << p.k << "_t" << p.t << "_gap" << p.gap
      << (p.expect_stable ? "_stable" : "_unstable");
}

class GapRotisserieFrontier
    : public ::testing::TestWithParam<FrontierParams> {};

TEST_P(GapRotisserieFrontier, StabilizationMatchesTheorem27) {
  const auto [n, k, t, gap, expect_stable] = GetParam();
  ASSERT_EQ(expect_stable, gap >= t + 1 - k) << "bad test vector";

  shm::SimMemory mem;
  shm::Simulator sim(mem, n);
  const ProcSet crashed = ProcSet::range(n - gap, n);
  const ProcSet live = crashed.complement(n);
  if (gap > 0) {
    sim.use_crash_plan(sched::CrashPlan::at(n, crashed, 0));
  }
  KAntiOmega detector(mem, KAntiOmega::Params{n, k, t, 1});
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(detector.run(p), "fd");
  }
  sched::RotatingStarverGenerator gen(n, live, ProcSet(), 600);
  sim.run(gen, 1'200'000);

  const auto check = check_kantiomega(detector, live, 4);
  EXPECT_EQ(check.stabilized, expect_stable) << check.detail;
  EXPECT_EQ(check.abstract_ok, expect_stable) << check.detail;
  if (expect_stable) {
    // Lemma 20: the stabilized winnerset contains a correct process —
    // here it is even fully live (crashed-containing sets stay accused).
    EXPECT_TRUE(check.winnerset.subset_of(live)) << check.detail;
  }

  // Witness cross-check: the executed schedule is in S^i_{j,n} for
  // i = 1, j = 1 + gap via (first live pid, itself + crashed), bound 1.
  const Pid p0 = live.min();
  EXPECT_EQ(sched::min_timeliness_bound(sim.executed(), ProcSet::of(p0),
                                        ProcSet::of(p0) | crashed),
            1);
}

INSTANTIATE_TEST_SUITE_P(
    Frontier, GapRotisserieFrontier,
    ::testing::Values(
        // (t=2, k=1, n=4): frontier at gap >= 2.
        FrontierParams{4, 1, 2, 0, false}, FrontierParams{4, 1, 2, 1, false},
        FrontierParams{4, 1, 2, 2, true},
        // (t=2, k=2, n=5): frontier at gap >= 1.
        FrontierParams{5, 2, 2, 0, false}, FrontierParams{5, 2, 2, 1, true},
        FrontierParams{5, 2, 2, 2, true},
        // (t=3, k=2, n=6): frontier at gap >= 2.
        FrontierParams{6, 2, 3, 1, false}, FrontierParams{6, 2, 3, 2, true},
        // (t=3, k=1, n=5): frontier at gap >= 3.
        FrontierParams{5, 1, 3, 2, false}, FrontierParams{5, 1, 3, 3, true}));

struct StarverParams {
  int n;
  int k;
  int t;
};

void PrintTo(const StarverParams& p, std::ostream* os) {
  *os << "n" << p.n << "_k" << p.k << "_t" << p.t;
}

class KSubsetStarverFrontier
    : public ::testing::TestWithParam<StarverParams> {};

TEST_P(KSubsetStarverFrontier, DefeatsAbstractProperty) {
  const auto [n, k, t] = GetParam();
  shm::SimMemory mem;
  shm::Simulator sim(mem, n);
  KAntiOmega detector(mem, KAntiOmega::Params{n, k, t, 1});
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(detector.run(p), "fd");
  }
  sched::KSubsetStarverGenerator gen(n, ProcSet::universe(n), k, 600);
  sim.run(gen, 1'200'000);

  const ProcSet all = ProcSet::universe(n);
  const auto check = check_kantiomega(detector, all, 4);
  EXPECT_FALSE(check.stabilized) << check.detail;
  EXPECT_FALSE(check.abstract_ok) << check.detail;

  // Winnersets keep churning: some process saw many switches.
  std::int64_t total_changes = 0;
  for (Pid p = 0; p < n; ++p) {
    total_changes += detector.view(p).winnerset_changes;
  }
  EXPECT_GT(total_changes, 10);

  // The schedule is nonetheless in S^{k+1}_{n,n}: every (k+1)-set is
  // timely w.r.t. everyone (verified on the executed schedule for the
  // first few (k+1)-sets).
  int checked = 0;
  for (const ProcSet s : k_subsets(n, k + 1)) {
    EXPECT_LE(sched::min_timeliness_bound(sim.executed(), s, all), 2 * n)
        << s.to_string();
    if (++checked >= 5) break;
  }
}

INSTANTIATE_TEST_SUITE_P(Oscillation, KSubsetStarverFrontier,
                         ::testing::Values(StarverParams{4, 1, 2},
                                           StarverParams{5, 2, 2},
                                           StarverParams{5, 1, 3},
                                           StarverParams{6, 2, 3}));

}  // namespace
}  // namespace setlib::fd
