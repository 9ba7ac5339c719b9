// Pinned membership censuses through core::ranked_pair_scan: the four
// n = 24 censuses perfbench's `census` workload runs first (the
// PairScanConfig defaults at seed derive_cell_seed(1, op); even ops
// enforce range(0,2) timely w.r.t. range(0,23) at bound 3, odd ops run
// the 2-subset starver), plus two small-n censuses with a generous cap
// whose members walk the whole 40k-step prefix. Every value was
// captured before the pair scan built its P timelines lazily, and each
// census must reproduce it at pool widths 1, 2 and 4, and as the union
// of three shards.
#include "src/core/experiments.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/core/report.h"
#include "src/core/runner.h"
#include "src/core/sweep.h"

namespace setlib::core {
namespace {

struct PinnedCensus {
  PairScanConfig config;
  std::int64_t pairs;
  std::int64_t members;
  // The earliest member in rank order, when members > 0.
  ProcSet first_p;
  ProcSet first_q;
  std::int64_t first_bound;
};

void expect_result(const PairScanResult& got, const PinnedCensus& census) {
  EXPECT_EQ(got.pairs, census.pairs);
  EXPECT_EQ(got.members, census.members);
  ASSERT_EQ(got.found, census.members > 0);
  if (got.found) {
    EXPECT_EQ(got.first.timely_set, census.first_p);
    EXPECT_EQ(got.first.observed_set, census.first_q);
    EXPECT_EQ(got.first.bound, census.first_bound);
  }
}

/// Runs `census` at pool widths 1, 2 and 4, and as three uneven shards
/// folded in shard order (counts summed, the first shard's member
/// first), and requires the pinned result every time.
void expect_pinned(const PinnedCensus& census, const std::string& name) {
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(name + " at " + std::to_string(threads) + " threads");
    RunnerOptions options;
    options.threads = threads;
    ExperimentRunner runner(options);
    expect_result(ranked_pair_scan(census.config, runner), census);
  }
  SCOPED_TRACE(name + " in three shards");
  PairScanResult folded;
  for (const ShardSpec shard : {ShardSpec{0, 3, 10}, ShardSpec{3, 4, 10},
                                ShardSpec{4, 10, 10}}) {
    RunnerOptions options;
    options.threads = 2;
    options.shard = shard;
    ExperimentRunner runner(options);
    const PairScanResult part = ranked_pair_scan(census.config, runner);
    folded.pairs += part.pairs;
    folded.members += part.members;
    if (!folded.found && part.found) {
      folded.found = true;
      folded.first = part.first;
    }
  }
  expect_result(folded, census);
}

TEST(CensusPinTest, PerfbenchCensusesKeepTheirCounts) {
  for (std::uint64_t op = 0; op < 4; ++op) {
    PinnedCensus census{};
    census.config.seed = derive_cell_seed(1, op);
    census.pairs = 276 * 24;
    if (op % 2 == 0) {  // enforced at bound 3: the witness alone
      census.config.enforced_bound = 3;
      census.members = 1;
      census.first_p = ProcSet::range(0, 2);
      census.first_q = ProcSet::range(0, 23);
      census.first_bound = 3;
    } else {  // starver: every 2-set starved past the cap
      census.config.enforced_bound = 0;
      census.members = 0;
    }
    expect_pinned(census, "op " + std::to_string(op));
  }
}

TEST(CensusPinTest, LongLivedMembersKeepTheirCounts) {
  // Enforced, |Q| = 3 of 8 at cap 16: 945 of 1,568 pairs stay under
  // the cap through all 625 words, the rest prune at every depth.
  PinnedCensus enforced{};
  enforced.config.n = 8;
  enforced.config.i = 2;
  enforced.config.j = 3;
  enforced.config.bound_cap = 16;
  enforced.config.seed = derive_cell_seed(1, 0);
  enforced.pairs = 1568;
  enforced.members = 945;
  enforced.first_p = ProcSet::range(0, 2);
  enforced.first_q = ProcSet::range(0, 3);
  enforced.first_bound = 3;
  expect_pinned(enforced, "enforced n 8 i 2 j 3 cap 16");

  // Starver, |Q| = 5 of 8 (observer sets built as complements) at cap
  // 8: the 3-subset starver leaves 1,171 of 3,136 pairs under the cap.
  PinnedCensus starver{};
  starver.config.n = 8;
  starver.config.i = 3;
  starver.config.j = 5;
  starver.config.bound_cap = 8;
  starver.config.enforced_bound = 0;  // the starver draws no seed
  starver.pairs = 3136;
  starver.members = 1171;
  starver.first_p = ProcSet::of({0, 1, 7});
  starver.first_q = ProcSet::range(0, 5);
  starver.first_bound = 5;
  expect_pinned(starver, "starver n 8 i 3 j 5 cap 8");
}

}  // namespace
}  // namespace setlib::core
