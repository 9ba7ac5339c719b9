// The sweep grid and its execution through the ExperimentRunner: grid
// enumeration, seed derivation, memoized points, thread-count
// determinism, and the exception contract.
#include "src/core/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/experiments.h"
#include "src/core/report.h"
#include "src/core/runner.h"
#include "src/core/solvability.h"
#include "src/runtime/pool.h"
#include "src/util/assert.h"

namespace setlib::core {
namespace {

SweepGrid small_grid(int repeats) {
  SweepGrid grid;
  RunConfig proto;
  proto.max_steps = 200'000;
  grid.add_spec({1, 1, 3})
      .add_spec({2, 2, 4})
      .add_family(ScheduleFamily::kEnforcedRandom)
      .add_bound(2)
      .add_bound(4)
      .repeats(repeats)
      .base_seed(99)
      .prototype(proto);
  return grid;
}

ExperimentRunner make_runner(int threads) {
  RunnerOptions options;
  options.threads = threads;
  return ExperimentRunner(options);
}

TEST(SweepGridTest, SizeIsCartesianProduct) {
  const SweepGrid grid = small_grid(3);
  // 2 specs (matching system) x 1 family x 2 bounds x 3 repeats.
  EXPECT_EQ(grid.size(), 12u);
}

TEST(SweepGridTest, EmptyGridIsLegal) {
  SweepGrid grid;  // no specs
  EXPECT_EQ(grid.size(), 0u);
  ExperimentRunner runner = make_runner(4);
  CollectSink collected;
  TableSink table;
  const SectionStats stats =
      runner.run(grid, "empty", {&collected, &table});
  EXPECT_TRUE(collected.cells().empty());
  EXPECT_TRUE(collected.reports().empty());
  EXPECT_EQ(stats.cells, 0u);
  EXPECT_FALSE(table.render().empty());  // header only
}

TEST(SweepGridTest, SingleCellGrid) {
  SweepGrid grid;
  grid.add_spec({1, 1, 3});
  EXPECT_EQ(grid.size(), 1u);
  const SweepCell cell = grid.cell(0);
  EXPECT_EQ(cell.index, 0u);
  EXPECT_EQ(cell.repeat, 0);
  EXPECT_EQ(cell.config.system.i, 1);      // matching system S^1_{2,3}
  EXPECT_EQ(cell.config.system.j, 2);

  ExperimentRunner runner = make_runner(1);
  CollectSink collected;
  AggregateSink agg;
  runner.run(grid, "single", {&collected, &agg});
  ASSERT_EQ(collected.reports().size(), 1u);
  EXPECT_TRUE(collected.reports()[0].success)
      << collected.reports()[0].detail;
  EXPECT_EQ(agg.aggregate().cells, 1u);
  EXPECT_EQ(agg.aggregate().successes, 1u);
}

TEST(SweepGridTest, CellSeedsAreIndexPureAndDistinct) {
  const SweepGrid grid = small_grid(2);
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const SweepCell cell = grid.cell(i);
    EXPECT_EQ(cell.index, i);
    EXPECT_EQ(cell.config.seed, derive_cell_seed(99, i));
    // Materializing the same cell twice is identical (pure function).
    EXPECT_EQ(grid.cell(i).config.seed, cell.config.seed);
    seeds.push_back(cell.config.seed);
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
}

TEST(SweepGridTest, FullMatrixAxisEnumeratesUpperTriangle) {
  SweepGrid grid;
  grid.add_spec({2, 1, 4}).system_axis(SystemAxis::kFullMatrix);
  EXPECT_EQ(grid.size(), 10u);  // n(n+1)/2 for n = 4
  int previous_i = 1;
  for (std::size_t idx = 0; idx < grid.size(); ++idx) {
    const SweepCell cell = grid.cell(idx);
    EXPECT_LE(cell.config.system.i, cell.config.system.j);
    EXPECT_GE(cell.config.system.i, previous_i);
    previous_i = cell.config.system.i;
  }
}

TEST(SweepGridTest, MemoizedPointsSurviveBuilderMutation) {
  // The point cache must invalidate when the axis product changes:
  // cell(0) both before and after a mutating builder call has to see
  // the up-to-date product.
  SweepGrid grid;
  grid.add_spec({2, 1, 4});
  EXPECT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid.cell(0).config.system.i, 1);  // matching system

  grid.system_axis(SystemAxis::kFullMatrix);
  EXPECT_EQ(grid.size(), 10u);

  grid.add_spec({2, 2, 5}).system_axis(SystemAxis::kMatching);
  EXPECT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid.cell(1).config.spec.n, 5);
}

TEST(SweepGridTest, PerCellHookSeesMaterializedCell) {
  SweepGrid grid;
  grid.add_spec({2, 1, 4})
      .system_axis(SystemAxis::kFullMatrix)
      .per_cell([](SweepCell& cell) {
        cell.config.family = cell.config.system.i > 1
                                 ? ScheduleFamily::kKSubsetStarver
                                 : ScheduleFamily::kRotisserie;
      });
  EXPECT_EQ(grid.cell(0).config.family, ScheduleFamily::kRotisserie);
  EXPECT_EQ(grid.cell(grid.size() - 1).config.family,
            ScheduleFamily::kKSubsetStarver);
}

TEST(ExperimentRunnerTest, AggregatesAreIdenticalAcrossThreadCounts) {
  const SweepGrid grid = small_grid(2);

  ExperimentRunner serial_runner = make_runner(1);
  ExperimentRunner parallel_runner = make_runner(8);
  CollectSink serial, parallel;
  AggregateSink serial_agg, parallel_agg;
  TableSink serial_table, parallel_table;
  serial_runner.run(grid, "sweep", {&serial, &serial_agg, &serial_table});
  parallel_runner.run(grid, "sweep",
                      {&parallel, &parallel_agg, &parallel_table});

  ASSERT_EQ(serial.reports().size(), parallel.reports().size());
  for (std::size_t i = 0; i < serial.reports().size(); ++i) {
    EXPECT_EQ(serial.cells()[i].config.seed,
              parallel.cells()[i].config.seed);
    EXPECT_EQ(serial.reports()[i].success, parallel.reports()[i].success);
    EXPECT_EQ(serial.reports()[i].steps_executed,
              parallel.reports()[i].steps_executed);
    EXPECT_EQ(serial.reports()[i].distinct_decisions,
              parallel.reports()[i].distinct_decisions);
    EXPECT_EQ(serial.reports()[i].witness_bound,
              parallel.reports()[i].witness_bound);
    EXPECT_EQ(serial.reports()[i].detail, parallel.reports()[i].detail);
  }
  EXPECT_EQ(serial_agg.aggregate().successes,
            parallel_agg.aggregate().successes);
  EXPECT_EQ(serial_agg.aggregate().steps.mean(),
            parallel_agg.aggregate().steps.mean());
  EXPECT_EQ(serial_agg.aggregate().witness_bound.percentile(90.0),
            parallel_agg.aggregate().witness_bound.percentile(90.0));
  // The rendered table (the bench-facing artifact) is bit-identical.
  EXPECT_EQ(serial_table.render(), parallel_table.render());
}

TEST(ExperimentRunnerTest, Thm27MatrixIsThreadCountInvariant) {
  MatrixConfig cfg;
  cfg.spec = {2, 1, 4};
  cfg.max_steps = 300'000;
  ExperimentRunner serial_runner = make_runner(1);
  ExperimentRunner parallel_runner = make_runner(8);
  const auto serial = thm27_matrix(cfg, serial_runner);
  const auto parallel = thm27_matrix(cfg, parallel_runner);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].i, parallel[i].i);
    EXPECT_EQ(serial[i].j, parallel[i].j);
    EXPECT_EQ(serial[i].matches, parallel[i].matches);
    EXPECT_EQ(serial[i].detail, parallel[i].detail);
  }
}

TEST(ExperimentRunnerTest, MapCoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 3, 8}) {
    ExperimentRunner runner = make_runner(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    const std::vector<std::size_t> out =
        runner.map<std::size_t>(hits.size(), [&](std::size_t i) {
          hits[i].fetch_add(1);
          return i;
        });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    // Results land in index order.
    ASSERT_EQ(out.size(), hits.size());
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
  }
}

TEST(ExperimentRunnerTest, LowestIndexExceptionPropagates) {
  ExperimentRunner runner = make_runner(8);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  try {
    runner.map<int>(hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 7) throw std::runtime_error("cell 7");
      if (i == 40) throw std::runtime_error("cell 40");
      return 0;
    });
    FAIL() << "expected the sweep to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 7");
  }
  // A failing cell aborts neither its siblings nor the sweep drain.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExperimentRunnerTest, FailingCellPropagatesFromGridRun) {
  SweepGrid grid;
  grid.add_spec({1, 1, 3}).repeats(2).per_cell([](SweepCell& cell) {
    if (cell.index == 1) cell.config.max_steps = -1;  // contract bait
  });
  ExperimentRunner runner = make_runner(4);
  EXPECT_THROW(runner.run(grid, "bait", {}), ContractViolation);
}

TEST(WorkerPoolTest, HardwareConcurrencyFallback) {
  runtime::WorkerPool pool(0);
  EXPECT_GE(pool.threads(), 1);
  EXPECT_LE(pool.threads(), runtime::WorkerPool::kMaxThreads);
}

TEST(WorkerPoolTest, WidthAboveTheMaximumIsRefused) {
  // Refused before a thread spawns or a slot is reserved.
  EXPECT_THROW(runtime::WorkerPool(runtime::WorkerPool::kMaxThreads + 1),
               ContractViolation);
  EXPECT_THROW(runtime::WorkerPool(-1), ContractViolation);
}

TEST(WorkerPoolTest, MoreThreadsThanWork) {
  runtime::WorkerPool pool(16);
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  pool.for_each(hits.size(),
                [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, ZeroTasksIsANoop) {
  runtime::WorkerPool pool(4);
  pool.for_each(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(WorkerPoolTest, ClaimCursorHoldsUpUnderContention) {
  // Near-empty tasks keep every participant hammering the claim
  // cursor. Each width reuses one pool across many jobs, alternating
  // clean jobs with jobs whose indices 3, 8, 13, ... and n - 1 throw.
  for (const int width : {1, 2, 4, 8}) {
    runtime::WorkerPool pool(width);
    for (const std::size_t n : {0u, 1u, 7u, 64u, 257u}) {
      for (int rep = 0; rep < 100; ++rep) {
        const bool throwing = rep % 2 == 1;
        std::vector<std::atomic<int>> hits(n);
        for (auto& h : hits) h.store(0);
        try {
          pool.for_each(n, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
            if (throwing && (i % 5 == 3 || i + 1 == n)) {
              throw std::runtime_error(std::to_string(i));
            }
          });
          EXPECT_TRUE(!throwing || n == 0) << width << " x " << n;
        } catch (const std::runtime_error& e) {
          // The smallest throwing index wins whoever ran it.
          const std::size_t first = std::min<std::size_t>(3, n - 1);
          EXPECT_TRUE(throwing) << width << " x " << n;
          EXPECT_EQ(e.what(), std::to_string(first)) << width << " x " << n;
        }
        // The rethrow waited for the drain: every index ran once.
        for (const auto& h : hits) {
          ASSERT_EQ(h.load(), 1) << width << " x " << n << " rep " << rep;
        }
      }
    }
    EXPECT_EQ(pool.threads_spawned(), width - 1);
  }
}

TEST(SweepSeedTest, DeriveCellSeedMixes) {
  EXPECT_NE(derive_cell_seed(1, 0), derive_cell_seed(1, 1));
  EXPECT_NE(derive_cell_seed(1, 0), derive_cell_seed(2, 0));
  EXPECT_EQ(derive_cell_seed(42, 7), derive_cell_seed(42, 7));
}

TEST(SweepFamilyTest, FamilyNames) {
  EXPECT_STREQ(family_name(ScheduleFamily::kEnforcedRandom), "friendly");
  EXPECT_STREQ(family_name(ScheduleFamily::kRotisserie), "rotisserie");
  EXPECT_STREQ(family_name(ScheduleFamily::kKSubsetStarver),
               "k-subset starver");
  EXPECT_STREQ(family_name(ScheduleFamily::kBursty), "bursty");
  EXPECT_STREQ(family_name(ScheduleFamily::kStarvation), "starvation");
  EXPECT_STREQ(family_name(ScheduleFamily::kCrashProne), "crash-prone");
  EXPECT_STREQ(family_name(ScheduleFamily::kGst), "gst");
}

TEST(SweepFamilyTest, RandomizedFamiliesListMatchesTheRegistryOrder) {
  const auto& families = randomized_families();
  ASSERT_EQ(families.size(), 4u);
  EXPECT_EQ(families[0], ScheduleFamily::kBursty);
  EXPECT_EQ(families[1], ScheduleFamily::kStarvation);
  EXPECT_EQ(families[2], ScheduleFamily::kCrashProne);
  EXPECT_EQ(families[3], ScheduleFamily::kGst);
}

}  // namespace
}  // namespace setlib::core
