// The shard-document merge behind `shard_merge`: merging
// --cells=LO..HI/SPAN JSON documents that tile the span must reproduce
// the unsharded document bit-identically outside the "timing" objects,
// for grid and hand-fed sections alike; inconsistent inputs must throw
// MergeError, never produce a silently incomplete document. Also pins the
// JsonSink emission contract the merge depends on (escaping,
// non-finite -> null, schema-consistent percentile keys).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/core/report.h"
#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/util/json.h"

namespace setlib::core {
namespace {

SweepGrid small_grid() {
  SweepGrid grid;
  RunConfig proto;
  proto.max_steps = 150'000;
  grid.add_spec({1, 1, 3})
      .add_bound(2)
      .add_bound(3)
      .repeats(3)
      .base_seed(17)
      .prototype(proto);
  return grid;  // 6 cells
}

/// Renders the document a bench invoked with --cells=LO..HI/SPAN would
/// write: one grid section plus one hand-fed section with a summed and
/// an invariant annotation.
JsonValue bench_doc(std::size_t lo, std::size_t hi,
                    std::size_t span = ShardSpec::kDefaultSpan) {
  RunnerOptions options;
  options.name = "merge_test";
  options.threads = 2;
  options.shard = {lo, hi, span};
  ExperimentRunner runner(options);
  JsonSink json = runner.json_sink();

  runner.run(small_grid(), "grid_section", {&json});

  const auto [begin, end] = runner.shard_range(10);
  json.section("hand_fed", end - begin, 0.25,
               {{"successes", static_cast<double>(end - begin)}});
  json.annotate("mismatches", lo == 0 ? 1.0 : 0.0);  // range-local count
  json.annotate("invariant_fact", 7.0, MergeRule::kSame);
  return JsonValue::parse(json.render());
}

/// The K-th of N equal slices: the unit range K..K+1/N.
JsonValue slice_doc(std::size_t k, std::size_t n) {
  return bench_doc(k, k + 1, n);
}

/// The unsharded run's document.
JsonValue full_doc() { return bench_doc(0, 1, 1); }

std::string comparable(const JsonValue& doc) {
  return canonical_json(strip_timing_keys(doc));
}

TEST(MergeShardDocsTest, OneTwoAndThreeWayMergesMatchTheUnshardedDoc) {
  const JsonValue full = full_doc();
  for (const std::size_t n : {1u, 2u, 3u}) {
    std::vector<JsonValue> shards;
    for (std::size_t k = 0; k < n; ++k) shards.push_back(slice_doc(k, n));
    const JsonValue merged = merge_shard_docs(shards);
    EXPECT_EQ(comparable(merged), comparable(full))
        << "merge of " << n << " shards diverged";
    EXPECT_EQ(merged.at("shard").as_string(), "0..1/1");
  }
}

TEST(MergeShardDocsTest, ShardInputOrderDoesNotMatter) {
  const JsonValue full = full_doc();
  std::vector<JsonValue> shards;
  for (const std::size_t k : {2u, 0u, 1u}) {
    shards.push_back(slice_doc(k, 3));
  }
  EXPECT_EQ(comparable(merge_shard_docs(shards)), comparable(full));
}

TEST(MergeShardDocsTest, EmptyShardsMergeCleanly) {
  // 6 cells over 8 shards: several shards run zero cells, yet their
  // sections must carry the same keys and the merge must still equal
  // the unsharded run.
  const JsonValue full = full_doc();
  std::vector<JsonValue> shards;
  for (std::size_t k = 0; k < 8; ++k) shards.push_back(slice_doc(k, 8));
  EXPECT_EQ(comparable(merge_shard_docs(shards)), comparable(full));
}

TEST(MergeShardDocsTest, CiKeysAreRecomputedFromTheUnionRows) {
  // The multi-seed dispersion keys are rows-derived grid stats: the
  // merge must recompute them from the union (matching the unsharded
  // values bitwise), never sum them like plain annotations or drop
  // them like timing keys.
  const JsonValue full = full_doc();
  std::vector<JsonValue> shards;
  for (std::size_t k = 0; k < 3; ++k) shards.push_back(slice_doc(k, 3));
  const JsonValue merged = merge_shard_docs(shards);
  const JsonValue& got = merged.at("sections").items().at(0);
  const JsonValue& want = full.at("sections").items().at(0);
  for (const char* key :
       {"steps_mean", "steps_stddev", "ci_steps_low", "ci_steps_high",
        "witness_bound_mean", "witness_bound_stddev",
        "ci_witness_bound_low", "ci_witness_bound_high", "success_rate",
        "ci_success_low", "ci_success_high"}) {
    ASSERT_NE(got.find(key), nullptr) << key;
    ASSERT_TRUE(got.at(key).is_number()) << key;
    // Rendered-literal equality: the unsharded document's value went
    // through json_number formatting; the merged value must emit the
    // identical literal (that is the bit-identity `shard_merge --diff`
    // checks).
    EXPECT_EQ(got.at(key).dump(), want.at(key).dump()) << key;
  }
  // The grid varies bounds and seeds, so the witness-bound interval
  // has real width.
  EXPECT_LT(got.at("ci_witness_bound_low").as_double(),
            got.at("ci_witness_bound_high").as_double());

  // The per-point breakdown: 6 cells at repeat factor 3 = 2 grid
  // points, each recomputed from the union rows (rendered-literal
  // identical to the unsharded run's array).
  EXPECT_EQ(got.at("repeat_factor").as_int(), 3);
  ASSERT_EQ(got.at("point_stats").items().size(), 2u);
  EXPECT_EQ(got.at("point_stats").dump(), want.at("point_stats").dump());
  for (const JsonValue& point : got.at("point_stats").items()) {
    EXPECT_EQ(point.at("cells").as_int(), 3);
    ASSERT_NE(point.find("ci_steps_low"), nullptr);
    ASSERT_NE(point.find("success_rate"), nullptr);
  }
}

TEST(MergeShardDocsTest, MissingShardIsAnErrorNotASilentDrop) {
  std::vector<JsonValue> shards;
  shards.push_back(slice_doc(0, 3));
  shards.push_back(slice_doc(2, 3));  // slice 1..2/3 never arrives
  EXPECT_THROW(merge_shard_docs(shards), MergeError);
}

TEST(MergeShardDocsTest, DuplicateShardIsAnError) {
  std::vector<JsonValue> shards;
  shards.push_back(slice_doc(0, 2));
  shards.push_back(slice_doc(0, 2));
  EXPECT_THROW(merge_shard_docs(shards), MergeError);
}

TEST(MergeShardDocsTest, DivergingConfigIsAnError) {
  JsonValue a = slice_doc(0, 2);
  const JsonValue b = slice_doc(1, 2);
  a.set("bench", JsonValue::of("other_bench"));
  EXPECT_THROW(merge_shard_docs({a, b}), MergeError);
}

TEST(MergeShardDocsTest, DisagreeingInvariantKeyIsAnError) {
  const std::string shard0 =
      R"({"bench": "b", "repeat": 1, "shard": "0..1/2",
          "sections": [{"name": "s", "cells": 1, "same_keys": ["inv"],
                        "inv": 7, "timing": {"wall_seconds": 0}}],
          "total_cells": 1, "timing": {"threads": 1}})";
  const std::string shard1 =
      R"({"bench": "b", "repeat": 1, "shard": "1..2/2",
          "sections": [{"name": "s", "cells": 1, "same_keys": ["inv"],
                        "inv": 8, "timing": {"wall_seconds": 0}}],
          "total_cells": 1, "timing": {"threads": 1}})";
  try {
    merge_shard_docs({JsonValue::parse(shard0), JsonValue::parse(shard1)});
    FAIL() << "expected MergeError";
  } catch (const MergeError& e) {
    // The message names the key and renders both literals: "a key
    // disagreed" alone is not actionable.
    EXPECT_STREQ(e.what(),
                 "section \"s\": shards disagree on invariant key "
                 "\"inv\": 7 vs 8");
  }
}

TEST(MergeShardDocsTest, EmptyInputIsAnError) {
  EXPECT_THROW(merge_shard_docs({}), MergeError);
}

TEST(MergeShardDocsTest, MalformedShardFieldIsAnError) {
  // stoul-style parsing would read "1e0" as 1 and defeat the gap and
  // overlap detection; the retired K/N form is malformed too.
  const JsonValue b = slice_doc(1, 2);
  for (const char* bad : {"0/2", "1e0..1/2", "0 ..1/2", "+0..1/2",
                          "0..1/2x", "..1/2", "0../2", "0..1/"}) {
    JsonValue a = slice_doc(0, 2);
    a.set("shard", JsonValue::of(bad));
    EXPECT_THROW(merge_shard_docs({a, b}), MergeError) << bad;
  }
}

TEST(MergeShardDocsTest, RangeDocsMergeBitIdenticalToTheUnshardedDoc) {
  // Any set of range documents that tile the virtual span — any
  // count, uneven widths, shuffled input order — merges to the
  // unsharded document.
  const JsonValue full = full_doc();
  const std::size_t span = ShardSpec::kDefaultSpan;

  // A single whole-span range is the unsharded run.
  EXPECT_EQ(comparable(merge_shard_docs({bench_doc(0, span)})),
            comparable(full));

  // An uneven three-way tiling, given out of order.
  std::vector<JsonValue> ranges;
  ranges.push_back(bench_doc(700'000, span));
  ranges.push_back(bench_doc(0, 100'000));
  ranges.push_back(bench_doc(100'000, 700'000));
  const JsonValue merged = merge_shard_docs(ranges);
  EXPECT_EQ(comparable(merged), comparable(full));
  EXPECT_EQ(merged.at("shard").as_string(), "0..1/1");
}

TEST(MergeShardDocsTest, RangeTilingViolationsAreErrors) {
  const std::size_t span = ShardSpec::kDefaultSpan;
  // A gap means a lost range...
  EXPECT_THROW(
      merge_shard_docs({bench_doc(0, 1'000), bench_doc(2'000, span)}),
      MergeError);
  // ...an overlap a double-counted one...
  EXPECT_THROW(merge_shard_docs(
                   {bench_doc(0, 600'000), bench_doc(500'000, span)}),
               MergeError);
  // ...and a tiling must start at 0 and reach the span.
  EXPECT_THROW(merge_shard_docs({bench_doc(0, 1'000)}), MergeError);
  EXPECT_THROW(merge_shard_docs({bench_doc(1'000, span)}), MergeError);
  // Documents must agree on the span.
  EXPECT_THROW(merge_shard_docs({bench_doc(0, 512, 1'024),
                                 bench_doc(512, 2'048, 2'048)}),
               MergeError);
  // An empty range is malformed, not a harmless no-op — the same rule
  // the --cells= flag enforces (the runner cannot even produce one, so
  // the field is forged).
  JsonValue empty = bench_doc(3, 4, 8);
  empty.set("shard", JsonValue::of("3..3/8"));
  EXPECT_THROW(merge_shard_docs({bench_doc(0, 3, 8), empty,
                                 bench_doc(3, 8, 8)}),
               MergeError);
}

TEST(JsonSinkContractTest, EveryRenderedDocumentParsesStrictly) {
  // Hostile names and non-finite values: the emission contract says
  // the document still round-trips through a strict parser.
  JsonSink::Config config;
  config.name = "we\"ird\nbench\\name";
  config.path = "unused.json";
  config.enabled = false;
  JsonSink sink(config);
  sink.section("se\"ct\tion", 2, 0.5);
  sink.annotate("nan_fact", std::numeric_limits<double>::quiet_NaN());
  sink.annotate("inf_fact", std::numeric_limits<double>::infinity());
  sink.annotate("plain_fact", 3.5);

  const JsonValue doc = JsonValue::parse(sink.render());
  EXPECT_EQ(doc.at("bench").as_string(), "we\"ird\nbench\\name");
  const JsonValue& section = doc.at("sections").items().at(0);
  EXPECT_EQ(section.at("name").as_string(), "se\"ct\tion");
  EXPECT_TRUE(section.at("nan_fact").is_null());
  EXPECT_TRUE(section.at("inf_fact").is_null());
  EXPECT_EQ(section.at("plain_fact").as_double(), 3.5);
}

TEST(JsonSinkContractTest, EmptyShardGridSectionsKeepThePercentileKeys) {
  // Slice 6..7/8 of a 1-cell grid runs nothing; its grid section must
  // still be schema-identical to a populated one (percentile keys
  // present, null).
  RunnerOptions options;
  options.name = "empty_shard";
  options.threads = 1;
  options.shard = {6, 7, 8};
  ExperimentRunner runner(options);
  JsonSink json = runner.json_sink();
  SweepGrid grid;
  RunConfig proto;
  proto.max_steps = 150'000;
  grid.add_spec({1, 1, 3}).prototype(proto);
  runner.run(grid, "grid_section", {&json});

  const JsonValue doc = JsonValue::parse(json.render());
  const JsonValue& section = doc.at("sections").items().at(0);
  EXPECT_EQ(section.at("cells").as_int(), 0);
  for (const char* key :
       {"steps_p50", "steps_p90", "steps_p99", "witness_bound_p90",
        "steps_mean", "steps_stddev", "ci_steps_low", "ci_steps_high",
        "witness_bound_mean", "witness_bound_stddev",
        "ci_witness_bound_low", "ci_witness_bound_high", "success_rate",
        "ci_success_low", "ci_success_high"}) {
    ASSERT_NE(section.find(key), nullptr) << key;
    EXPECT_TRUE(section.at(key).is_null()) << key;
  }
  const JsonValue& timing = section.at("timing");
  for (const char* key :
       {"cell_seconds_p50", "cell_seconds_p90", "cell_seconds_p99"}) {
    ASSERT_NE(timing.find(key), nullptr) << key;
    EXPECT_TRUE(timing.at(key).is_null()) << key;
  }
  EXPECT_EQ(section.at("rows").items().size(), 0u);
  EXPECT_EQ(section.at("point_stats").items().size(), 0u);
  EXPECT_EQ(section.at("repeat_factor").as_int(), 1);
}

TEST(TimingKeyTest, TheRuleMatchesTheDocumentedKeys) {
  // strip_timing_keys drops every member named "timing", at any depth,
  // and nothing else: a key's spelling never makes it a timing fact.
  const JsonValue doc = JsonValue::parse(R"({
      "bench": "b", "total_cells": 2,
      "timing": {"total_wall_seconds": 1, "runs_per_sec": 2,
                 "threads": 4, "merge": {"shards": 3}},
      "sections": [{"name": "s", "cells": 2, "speedup_count": 1,
                    "wall_clock_checks": 2, "seconds_budget": 3,
                    "point_stats": [{"point": 0, "timing": {"x": 1}}],
                    "timing": {"wall_seconds": 1, "runs_per_sec": 2,
                               "cell_seconds_p50": 0.5}}]})");
  EXPECT_EQ(canonical_json(strip_timing_keys(doc)),
            canonical_json(JsonValue::parse(R"({
      "bench": "b", "total_cells": 2,
      "sections": [{"name": "s", "cells": 2, "speedup_count": 1,
                    "wall_clock_checks": 2, "seconds_budget": 3,
                    "point_stats": [{"point": 0}]}]})")));

  // A rendered document keeps every wall-clock fact, the thread count
  // included, under a "timing" object: renders at different thread
  // counts strip to the same document.
  auto rendered = [](int threads) {
    JsonSink::Config config;
    config.name = "timing_layout";
    config.threads = threads;
    JsonSink sink(config);
    sink.section("s", 2, 0.5 * threads);
    sink.annotate("measured_seconds", threads, MergeRule::kTiming);
    return JsonValue::parse(sink.render());
  };
  const JsonValue one = rendered(1);
  const JsonValue four = rendered(4);
  EXPECT_EQ(one.at("timing").at("threads").as_int(), 1);
  EXPECT_EQ(four.at("timing").at("threads").as_int(), 4);
  EXPECT_EQ(four.find("threads"), nullptr);
  EXPECT_EQ(four.at("timing").at("total_wall_seconds").as_double(), 2.0);
  EXPECT_EQ(four.at("timing").at("runs_per_sec").as_double(), 1.0);
  const JsonValue& section = four.at("sections").items().at(0);
  EXPECT_EQ(section.at("timing").at("wall_seconds").as_double(), 2.0);
  EXPECT_EQ(section.at("timing").at("runs_per_sec").as_double(), 1.0);
  EXPECT_NE(canonical_json(one), canonical_json(four));
  EXPECT_EQ(canonical_json(strip_timing_keys(one)),
            canonical_json(strip_timing_keys(four)));
}

/// One hand-fed section over `cells` cells of the `shard` range, with
/// a summed and an invariant annotation whose names merely look like
/// timing keys, and a real timing annotation.
JsonValue annotated_doc(ShardSpec shard, std::size_t cells,
                        double speedup_count, double measured_seconds) {
  JsonSink::Config config;
  config.name = "annotated";
  config.shard = shard;
  JsonSink sink(config);
  sink.section("s", cells, 0.25);
  sink.annotate("speedup_count", speedup_count);
  sink.annotate("wall_clock_checks", 2.0, MergeRule::kSame);
  sink.annotate("measured_seconds", measured_seconds, MergeRule::kTiming);
  return JsonValue::parse(sink.render());
}

TEST(MergeShardDocsTest, AnnotationsSpelledLikeTimingAreMergedAndCompared) {
  const JsonValue merged =
      merge_shard_docs({annotated_doc({0, 1, 2}, 1, 1.0, 0.5),
                        annotated_doc({1, 2, 2}, 1, 2.0, 0.75)});
  const JsonValue& section = merged.at("sections").items().at(0);
  EXPECT_EQ(section.at("speedup_count").as_double(), 3.0);  // kSum
  EXPECT_EQ(section.at("wall_clock_checks").as_double(), 2.0);  // kSame
  EXPECT_EQ(comparable(merged),
            comparable(annotated_doc({0, 1, 1}, 2, 3.0, 9.0)));
  // The determinism diff compares them like any other fact.
  EXPECT_NE(comparable(merged),
            comparable(annotated_doc({0, 1, 1}, 2, 4.0, 9.0)));
}

TEST(JsonSinkContractTest, TimingAnnotationsLandUnderTheSectionTiming) {
  const JsonValue doc = annotated_doc({0, 1, 1}, 2, 3.0, 0.5);
  const JsonValue& section = doc.at("sections").items().at(0);
  EXPECT_EQ(section.find("measured_seconds"), nullptr);
  EXPECT_EQ(section.at("timing").at("measured_seconds").as_double(), 0.5);
  EXPECT_EQ(section.find("same_keys")->dump(), R"(["wall_clock_checks"])");
  // Excluded from the determinism diff...
  EXPECT_EQ(comparable(doc),
            comparable(annotated_doc({0, 1, 1}, 2, 3.0, 7.0)));
  // ...and from merges, which keep only the recomputed wall clock.
  const JsonValue merged = merge_shard_docs({doc});
  EXPECT_EQ(merged.at("sections").items().at(0).at("timing").dump(),
            R"({"wall_seconds": 0.25, "runs_per_sec": 8})");
}

TEST(CanonicalJsonTest, KeyOrderDoesNotAffectTheCanonicalForm) {
  const JsonValue a = JsonValue::parse(R"({"b": 1, "a": [{"y": 2, "x": 3}]})");
  const JsonValue b = JsonValue::parse(R"({"a": [{"x": 3, "y": 2}], "b": 1})");
  EXPECT_EQ(canonical_json(a), canonical_json(b));
}

}  // namespace
}  // namespace setlib::core
