// The ExperimentRunner: shard determinism (the concatenation of the
// k/N shard runs equals the 1-shard run cell-for-cell), persistent
// pool reuse (no thread respawn across sequential run() calls), the
// pool's exactly-once and exception contracts, and the report sinks.
#include "src/core/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "src/core/report.h"
#include "src/core/sweep.h"
#include "src/runtime/pool.h"
#include "src/util/assert.h"
#include "src/util/json.h"

namespace setlib::core {
namespace {

SweepGrid shard_grid() {
  SweepGrid grid;
  RunConfig proto;
  proto.max_steps = 150'000;
  grid.add_spec({1, 1, 3})
      .add_spec({2, 2, 4})
      .add_family(ScheduleFamily::kEnforcedRandom)
      .add_bound(2)
      .add_bound(3)
      .repeats(3)
      .base_seed(41)
      .prototype(proto);
  return grid;  // 2 specs x 1 family x 2 bounds x 3 repeats = 12 cells
}

ExperimentRunner make_runner(int threads, ShardSpec shard = {}) {
  RunnerOptions options;
  options.threads = threads;
  options.shard = shard;
  return ExperimentRunner(options);
}

TEST(ShardSpecTest, RangesPartitionTheIndexSpace) {
  for (const std::size_t total : {0u, 1u, 7u, 10u, 12u, 101u}) {
    for (const std::size_t n : {1u, 2u, 3u, 4u, 7u}) {
      std::size_t covered = 0;
      std::size_t previous_end = 0;
      for (std::size_t k = 0; k < n; ++k) {
        const auto [begin, end] = ShardSpec{k, k + 1, n}.range(total);
        EXPECT_EQ(begin, previous_end);  // contiguous, in order
        EXPECT_LE(begin, end);
        covered += end - begin;
        previous_end = end;
      }
      EXPECT_EQ(previous_end, total);
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(RunnerShardTest, ShardUnionEqualsUnshardedRunCellForCell) {
  const SweepGrid grid = shard_grid();

  ExperimentRunner full_runner = make_runner(4);
  CollectSink full;
  full_runner.run(grid, "full", {&full});
  ASSERT_EQ(full.cells().size(), 12u);

  std::vector<SweepCell> union_cells;
  std::vector<RunReport> union_reports;
  const std::size_t shards = 4;
  for (std::size_t k = 0; k < shards; ++k) {
    ExperimentRunner shard_runner = make_runner(2, ShardSpec{k, k + 1, shards});
    CollectSink part;
    shard_runner.run(grid, "part", {&part});
    union_cells.insert(union_cells.end(), part.cells().begin(),
                       part.cells().end());
    union_reports.insert(union_reports.end(), part.reports().begin(),
                         part.reports().end());
  }

  ASSERT_EQ(union_cells.size(), full.cells().size());
  for (std::size_t i = 0; i < union_cells.size(); ++i) {
    EXPECT_EQ(union_cells[i].index, full.cells()[i].index);
    EXPECT_EQ(union_cells[i].config.seed, full.cells()[i].config.seed);
    EXPECT_EQ(union_reports[i].success, full.reports()[i].success);
    EXPECT_EQ(union_reports[i].steps_executed,
              full.reports()[i].steps_executed);
    EXPECT_EQ(union_reports[i].witness_bound,
              full.reports()[i].witness_bound);
    EXPECT_EQ(union_reports[i].distinct_decisions,
              full.reports()[i].distinct_decisions);
    EXPECT_EQ(union_reports[i].detail, full.reports()[i].detail);
  }
}

TEST(RunnerShardTest, RandomizedFamiliesBitIdenticalAcrossThreadsAndShards) {
  // The new adversary families ride the same determinism contract as
  // the paper constructions: per-cell seeds are index-pure, so a
  // family sweep is bit-identical at 1 vs. 8 threads and the K/3
  // shard runs concatenate to the unsharded run.
  SweepGrid grid;
  RunConfig proto;
  proto.max_steps = 120'000;
  grid.add_spec({2, 1, 4});
  for (const auto family : randomized_families()) {
    grid.add_family(family);
  }
  grid.add_bound(3).repeats(2).base_seed(99).prototype(proto);
  // 1 spec x 4 families x 1 bound x 2 repeats = 8 cells.

  ExperimentRunner serial = make_runner(1);
  CollectSink one;
  serial.run(grid, "one", {&one});
  ASSERT_EQ(one.reports().size(), 8u);

  ExperimentRunner wide = make_runner(8);
  CollectSink eight;
  wide.run(grid, "eight", {&eight});

  std::vector<RunReport> union_reports;
  for (std::size_t k = 0; k < 3; ++k) {
    ExperimentRunner shard_runner = make_runner(2, ShardSpec{k, k + 1, 3});
    CollectSink part;
    shard_runner.run(grid, "part", {&part});
    union_reports.insert(union_reports.end(), part.reports().begin(),
                         part.reports().end());
  }

  ASSERT_EQ(eight.reports().size(), one.reports().size());
  ASSERT_EQ(union_reports.size(), one.reports().size());
  for (std::size_t i = 0; i < one.reports().size(); ++i) {
    EXPECT_EQ(eight.reports()[i].detail, one.reports()[i].detail) << i;
    EXPECT_EQ(union_reports[i].detail, one.reports()[i].detail) << i;
    EXPECT_EQ(eight.reports()[i].witness_bound,
              one.reports()[i].witness_bound);
    EXPECT_EQ(union_reports[i].witness_bound,
              one.reports()[i].witness_bound);
    EXPECT_EQ(union_reports[i].faulty, one.reports()[i].faulty) << i;
  }
}

TEST(RunnerShardTest, ReactiveFamiliesBitIdenticalAcrossThreadsAndShards) {
  // The execution-reactive adversaries (sched/reactive.h) close a
  // feedback loop through the Simulator, but their reactions are a
  // pure function of (observations, seed) — so the same grid is
  // bit-identical at 1 vs. 8 threads and across a 3-shard union,
  // including the per-cell schedule hashes.
  SweepGrid grid;
  RunConfig proto;
  proto.max_steps = 60'000;
  grid.add_spec({2, 2, 5});
  for (const auto family : reactive_families()) {
    grid.add_family(family);
  }
  grid.add_bound(3).repeats(2).base_seed(2026).prototype(proto);
  // 1 spec x 3 reactive families x 1 bound x 2 repeats = 6 cells.

  ExperimentRunner serial = make_runner(1);
  CollectSink one;
  serial.run(grid, "one", {&one});
  ASSERT_EQ(one.reports().size(), 6u);

  ExperimentRunner wide = make_runner(8);
  CollectSink eight;
  wide.run(grid, "eight", {&eight});

  std::vector<RunReport> union_reports;
  for (std::size_t k = 0; k < 3; ++k) {
    ExperimentRunner shard_runner = make_runner(2, ShardSpec{k, k + 1, 3});
    CollectSink part;
    shard_runner.run(grid, "part", {&part});
    union_reports.insert(union_reports.end(), part.reports().begin(),
                         part.reports().end());
  }

  ASSERT_EQ(eight.reports().size(), one.reports().size());
  ASSERT_EQ(union_reports.size(), one.reports().size());
  for (std::size_t i = 0; i < one.reports().size(); ++i) {
    EXPECT_EQ(eight.reports()[i].detail, one.reports()[i].detail) << i;
    EXPECT_EQ(union_reports[i].detail, one.reports()[i].detail) << i;
    EXPECT_EQ(eight.reports()[i].witness_bound,
              one.reports()[i].witness_bound);
    EXPECT_EQ(union_reports[i].witness_bound,
              one.reports()[i].witness_bound);
    EXPECT_EQ(union_reports[i].faulty, one.reports()[i].faulty) << i;
    // The replay hash pins the executed step stream itself, the
    // strongest bit-identity statement a cell can make.
    EXPECT_NE(one.reports()[i].schedule_hash, 0u) << i;
    EXPECT_EQ(eight.reports()[i].schedule_hash,
              one.reports()[i].schedule_hash)
        << i;
    EXPECT_EQ(union_reports[i].schedule_hash,
              one.reports()[i].schedule_hash)
        << i;
  }
}

TEST(RunnerShardTest, ShardedMapSlicesConcatenateToUnshardedMap) {
  const std::size_t n = 23;
  ExperimentRunner full_runner = make_runner(3);
  const auto full = full_runner.map<std::size_t>(
      n, [](std::size_t i) { return i * i + 1; });
  ASSERT_EQ(full.size(), n);

  std::vector<std::size_t> joined;
  for (std::size_t k = 0; k < 3; ++k) {
    ExperimentRunner shard_runner = make_runner(2, ShardSpec{k, k + 1, 3});
    const auto part = shard_runner.map<std::size_t>(
        n, [](std::size_t i) { return i * i + 1; });
    joined.insert(joined.end(), part.begin(), part.end());
  }
  EXPECT_EQ(joined, full);
}

TEST(RunnerShardTest, EmptyShardIsLegal) {
  // More shards than cells: the tail shards are empty slices.
  ExperimentRunner runner = make_runner(2, ShardSpec{6, 7, 8});
  SweepGrid grid;
  grid.add_spec({1, 1, 3});  // one cell
  CollectSink part;
  const SectionStats stats = runner.run(grid, "empty-shard", {&part});
  EXPECT_EQ(stats.cells, 0u);
  EXPECT_EQ(stats.grid_cells, 1u);
  EXPECT_TRUE(part.cells().empty());
}

TEST(RunnerPoolTest, SequentialRunsReuseTheSameWorkerThreads) {
  ExperimentRunner runner = make_runner(4);
  const std::int64_t spawned_at_start = runner.pool().threads_spawned();
  EXPECT_EQ(spawned_at_start, 3);  // submitter + 3 persistent workers

  const SweepGrid grid = shard_grid();
  CollectSink first_run, second_run;
  runner.run(grid, "first", {&first_run});
  const std::int64_t jobs_after_first = runner.pool().jobs_completed();
  runner.run(grid, "second", {&second_run});

  // Persistent pool: both sweep sections executed, yet the spawn
  // counter never moved — the same workers served both jobs.
  EXPECT_EQ(runner.pool().threads_spawned(), spawned_at_start);
  EXPECT_GT(runner.pool().jobs_completed(), jobs_after_first);

  // And reuse does not perturb results.
  ASSERT_EQ(first_run.reports().size(), second_run.reports().size());
  for (std::size_t i = 0; i < first_run.reports().size(); ++i) {
    EXPECT_EQ(first_run.reports()[i].steps_executed,
              second_run.reports()[i].steps_executed);
    EXPECT_EQ(first_run.reports()[i].detail,
              second_run.reports()[i].detail);
  }
}

TEST(RunnerPoolTest, SequentialJobsCoverEveryIndexExactlyOnce) {
  // One pool, many jobs: each job starts from a fresh claim cursor.
  runtime::WorkerPool pool(4);
  for (int job = 0; job < 5; ++job) {
    std::vector<std::atomic<int>> hits(137);
    for (auto& h : hits) h.store(0);
    pool.for_each(hits.size(),
                  [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  EXPECT_EQ(pool.jobs_completed(), 5);
}

TEST(RunnerPoolTest, ExceptionContractHoldsAcrossWorkers) {
  runtime::WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(96);
  for (auto& h : hits) h.store(0);
  try {
    pool.for_each(hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 11 || i == 70) {
        throw std::runtime_error("cell " + std::to_string(i));
      }
    });
    FAIL() << "expected the pool to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cell 11");
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(JsonSinkTest, SinksSurviveAThrowingSweepSection) {
  RunnerOptions options;
  options.name = "throwing";
  options.threads = 4;
  ExperimentRunner runner(options);
  JsonSink json = runner.json_sink();

  SweepGrid bait;
  bait.add_spec({1, 1, 3}).repeats(2).per_cell([](SweepCell& cell) {
    if (cell.index == 1) cell.config.max_steps = -1;  // contract bait
  });
  EXPECT_THROW(runner.run(bait, "bait", {&json}), ContractViolation);

  // The failed section was closed (empty), so the sink is reusable.
  SweepGrid good;
  RunConfig proto;
  proto.max_steps = 150'000;
  good.add_spec({1, 1, 3}).prototype(proto);
  runner.run(good, "good", {&json});
  const std::string doc = json.render();
  EXPECT_NE(doc.find("\"name\": \"bait\", \"cells\": 0"),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"good\", \"cells\": 1"),
            std::string::npos);
}

TEST(ExperimentRunnerTest, RunSectionStreamsItsShardSliceInCellOrder) {
  // The second half of a 10-cell space: global indices 5..9.
  ExperimentRunner runner = make_runner(4, ShardSpec{1, 2, 2});
  std::vector<std::size_t> made;
  CollectSink rows;
  const SectionStats stats = runner.run_section(
      "custom", 10, 1, {&rows},
      [&](std::size_t index) {
        made.push_back(index);
        SweepCell cell;
        cell.index = index;
        return cell;
      },
      [](const SweepCell& cell, util::ArenaAllocator&) {
        RunReport report;
        report.steps_executed = static_cast<std::int64_t>(cell.index) * 10;
        return report;
      });
  EXPECT_EQ(made, (std::vector<std::size_t>{5, 6, 7, 8, 9}));
  EXPECT_EQ(stats.grid_cells, 10u);
  EXPECT_EQ(stats.cells, 5u);
  ASSERT_EQ(rows.cells().size(), 5u);
  for (std::size_t i = 0; i < rows.cells().size(); ++i) {
    EXPECT_EQ(rows.cells()[i].index, 5 + i);
    EXPECT_EQ(rows.reports()[i].steps_executed,
              static_cast<std::int64_t>(5 + i) * 10);
  }
}

TEST(JsonSinkTest, GridSectionsRecordRowsAndPercentiles) {
  RunnerOptions options;
  options.name = "runner_test";
  options.threads = 2;
  ExperimentRunner runner(options);
  JsonSink json = runner.json_sink();

  SweepGrid grid;
  RunConfig proto;
  proto.max_steps = 150'000;
  grid.add_spec({1, 1, 3}).repeats(2).base_seed(5).prototype(proto);
  runner.run(grid, "grid_section", {&json});
  json.section("hand_fed", 3, 0.5, {{"successes", 3.0}});
  json.annotate("mismatches", 0.0);

  const std::string doc = json.render();
  EXPECT_NE(doc.find("\"bench\": \"runner_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"shard\": \"0..1/1\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"grid_section\""), std::string::npos);
  EXPECT_NE(doc.find("\"rows\": [{\"index\": 0"), std::string::npos);
  EXPECT_NE(doc.find("\"steps_p50\""), std::string::npos);
  EXPECT_NE(doc.find("\"cell_seconds_p90\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"hand_fed\""), std::string::npos);
  EXPECT_NE(doc.find("\"mismatches\": 0"), std::string::npos);
  EXPECT_NE(doc.find("\"total_cells\": 5"), std::string::npos);
}

TEST(JsonSinkTest, GridRowsCarryTheScheduleHash) {
  RunnerOptions options;
  options.name = "hash_rows";
  options.threads = 2;
  ExperimentRunner runner(options);
  JsonSink json = runner.json_sink();

  SweepGrid grid;
  RunConfig proto;
  proto.max_steps = 60'000;
  grid.add_spec({2, 2, 5})
      .add_family(ScheduleFamily::kWindowStretcher)
      .add_bound(3)
      .repeats(2)
      .base_seed(12)
      .prototype(proto);
  runner.run(grid, "grid_section", {&json});

  // Every row records the executed stream's replay hash as a 16-hex
  // string (never a JSON number: doubles corrupt 64-bit values), and
  // a real run never hashes to zero.
  const JsonValue doc = JsonValue::parse(json.render());
  const JsonValue& rows = doc.at("sections").items().at(0).at("rows");
  ASSERT_EQ(rows.items().size(), 2u);
  for (const JsonValue& row : rows.items()) {
    const std::string hash = row.at("schedule_hash").as_string();
    ASSERT_EQ(hash.size(), 16u);
    EXPECT_NE(hash, "0000000000000000");
    for (const char c : hash) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
    }
  }
}

TEST(JsonSinkTest, ReactiveRangeDocsMergeToTheUnshardedDocument) {
  // The shard-merge invariant over a reactive-family grid: any
  // --cells tiling of the virtual span (here an uneven N=3 split,
  // merged out of order) merges bit-identically — modulo
  // timing keys — to the unsharded document, schedule_hash rows
  // included (the hash is a row fact, not a summed or timing key).
  SweepGrid grid;
  RunConfig proto;
  proto.max_steps = 60'000;
  grid.add_spec({2, 2, 5});
  for (const auto family : reactive_families()) {
    grid.add_family(family);
  }
  grid.add_bound(3).repeats(2).base_seed(7).prototype(proto);

  const auto doc = [&grid](ShardSpec shard) {
    RunnerOptions options;
    options.name = "reactive_ranges";
    options.threads = 2;
    options.shard = shard;
    ExperimentRunner runner(options);
    JsonSink json = runner.json_sink();
    runner.run(grid, "grid_section", {&json});
    return JsonValue::parse(json.render());
  };
  const auto range = [](std::size_t lo, std::size_t hi) {
    return ShardSpec{lo, hi, ShardSpec::kDefaultSpan};
  };

  const JsonValue full = doc(ShardSpec{});
  std::vector<JsonValue> ranges;
  ranges.push_back(doc(range(600'000, ShardSpec::kDefaultSpan)));
  ranges.push_back(doc(range(0, 250'000)));
  ranges.push_back(doc(range(250'000, 600'000)));
  const JsonValue merged = merge_shard_docs(ranges);
  EXPECT_EQ(canonical_json(strip_timing_keys(merged)),
            canonical_json(strip_timing_keys(full)));
  EXPECT_NE(merged.dump().find("\"schedule_hash\""), std::string::npos);
}

TEST(JsonSinkTest, ShardRowsCarryGlobalIndices) {
  RunnerOptions options;
  options.name = "shard_rows";
  options.threads = 1;
  options.shard = {1, 2, 2};  // second half
  ExperimentRunner runner(options);
  JsonSink json = runner.json_sink();

  SweepGrid grid;
  RunConfig proto;
  proto.max_steps = 150'000;
  grid.add_spec({1, 1, 3}).repeats(4).base_seed(5).prototype(proto);
  runner.run(grid, "grid_section", {&json});

  const std::string doc = json.render();
  // Shard 1/2 of 4 cells covers global indices 2 and 3.
  EXPECT_NE(doc.find("\"rows\": [{\"index\": 2"), std::string::npos);
  EXPECT_NE(doc.find("{\"index\": 3"), std::string::npos);
  EXPECT_EQ(doc.find("{\"index\": 0"), std::string::npos);
}

}  // namespace
}  // namespace setlib::core
