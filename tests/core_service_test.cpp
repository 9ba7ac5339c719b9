// The serving harness determinism contract: closed-loop aggregate
// stats are bit-identical at any thread count and across shard merges,
// backpressure sheds exactly what the bounded queue cannot hold,
// batching never changes what gets decided (B=1 and B=64 produce the
// same request -> decision map), the SLO percentile math matches a
// reference nearest-rank sort, and every batch is an engine run whose
// row facts and schedule_hash are pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/loadgen.h"
#include "src/core/report.h"
#include "src/core/runner.h"
#include "src/core/service.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace setlib::core {
namespace {

ServiceConfig small_config() {
  ServiceConfig config;
  config.requests = 2000;
  config.seed = 11;
  return config;
}

/// Runs the closed loop under the given runner options and returns the
/// (report, rendered JSON document) pair.
std::pair<ClosedLoopReport, JsonValue> serve(const ServiceConfig& config,
                                             RunnerOptions options) {
  options.name = "serving_test";
  ExperimentRunner runner(options);
  JsonSink json = runner.json_sink();
  const ServiceHarness harness(config);
  ClosedLoopReport report = harness.run_closed_loop(runner, {}, &json);
  return {std::move(report), JsonValue::parse(json.render())};
}

/// Canonical form for determinism diffs: the timing objects (where
/// the thread count lives too) stripped.
std::string comparable(const JsonValue& doc) {
  return canonical_json(strip_timing_keys(doc));
}

TEST(ServiceHarnessTest, ClosedLoopStatsAreThreadCountInvariant) {
  const ServiceConfig config = small_config();
  RunnerOptions one;
  one.threads = 1;
  RunnerOptions eight;
  eight.threads = 8;
  const auto [report1, doc1] = serve(config, one);
  const auto [report8, doc8] = serve(config, eight);

  EXPECT_EQ(comparable(doc1), comparable(doc8));
  EXPECT_EQ(report1.decisions, report8.decisions);
  EXPECT_EQ(report1.shard_requests, report8.shard_requests);
  EXPECT_EQ(report1.shard_decided_ok, report8.shard_decided_ok);
  EXPECT_EQ(report1.plan.slo.p99, report8.plan.slo.p99);
  EXPECT_GT(report1.shard_requests, 0);
}

TEST(ServiceHarnessTest, ShardMergeReproducesTheUnshardedDocument) {
  const ServiceConfig config = small_config();
  RunnerOptions full_options;
  full_options.threads = 2;
  const auto [full_report, full_doc] = serve(config, full_options);

  std::vector<JsonValue> shard_docs;
  std::vector<std::pair<std::int64_t, std::int64_t>> shard_decisions;
  std::int64_t shard_requests = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    RunnerOptions options;
    options.threads = 2;
    options.shard = {k, k + 1, 3};
    auto [report, doc] = serve(config, options);
    shard_docs.push_back(std::move(doc));
    shard_decisions.insert(shard_decisions.end(),
                           report.decisions.begin(),
                           report.decisions.end());
    shard_requests += report.shard_requests;
  }

  const JsonValue merged = merge_shard_docs(shard_docs);
  EXPECT_EQ(comparable(merged), comparable(full_doc));
  // Shards are contiguous slices of the batch space, so concatenating
  // their decision streams reproduces the unsharded stream.
  EXPECT_EQ(shard_decisions, full_report.decisions);
  EXPECT_EQ(shard_requests, full_report.shard_requests);
}

TEST(ServiceHarnessTest, TinyQueueCapShedsAndAccountsEveryRequest) {
  ServiceConfig config;
  config.requests = 100;
  config.queue_cap = 4;
  config.mean_interarrival_ticks = 0;  // everything arrives at tick 0
  const ServiceHarness harness(config);
  const AdmissionPlan plan = harness.plan();

  EXPECT_EQ(plan.offered, 100);
  EXPECT_EQ(plan.accepted + plan.shed, plan.offered);
  EXPECT_EQ(plan.accepted, 4);  // the queue never exceeds its cap
  EXPECT_EQ(plan.shed, 96);
  EXPECT_LE(plan.queue_depth_max, config.queue_cap);
  EXPECT_EQ(static_cast<std::int64_t>(plan.latency_ticks.size()),
            plan.accepted);
  EXPECT_EQ(static_cast<std::int64_t>(plan.admitted.size()),
            plan.accepted);
}

TEST(ServiceHarnessTest, GenerousQueueShedsNothing) {
  const ServiceConfig config = small_config();
  const ServiceHarness harness(config);
  const AdmissionPlan plan = harness.plan();
  EXPECT_EQ(plan.shed, 0);
  EXPECT_EQ(plan.accepted, config.requests);
  std::int64_t covered = 0;
  for (const AdmissionPlan::Batch& batch : plan.batches) {
    EXPECT_GE(batch.size, 1);
    EXPECT_LE(batch.size, config.batch);
    EXPECT_EQ(batch.first_admitted, static_cast<std::size_t>(covered));
    covered += batch.size;
  }
  EXPECT_EQ(covered, plan.accepted);
}

TEST(ServiceHarnessTest, BatchingDoesNotChangeDecisions) {
  ServiceConfig narrow = small_config();
  narrow.requests = 400;
  narrow.batch = 1;
  ServiceConfig wide = narrow;
  wide.batch = 64;

  RunnerOptions options;
  options.threads = 2;
  const auto [narrow_report, narrow_doc] = serve(narrow, options);
  const auto [wide_report, wide_doc] = serve(wide, options);

  // Nothing shed in either run, so both decide the same request set.
  ASSERT_EQ(narrow_report.plan.shed, 0);
  ASSERT_EQ(wide_report.plan.shed, 0);

  auto by_id = [](std::vector<std::pair<std::int64_t, std::int64_t>> d) {
    std::sort(d.begin(), d.end());
    return d;
  };
  EXPECT_EQ(by_id(narrow_report.decisions), by_id(wide_report.decisions));

  // And every decision is the client's own command: validity pins the
  // outcome because every replica proposes the request's command.
  const LoadGen gen(
      LoadGenConfig{narrow.requests, narrow.seed,
                    narrow.mean_interarrival_ticks});
  for (const auto& [id, decided] : wide_report.decisions) {
    EXPECT_EQ(decided, gen.command(id)) << "request " << id;
  }
  EXPECT_EQ(wide_report.shard_decided_ok, narrow.requests);
}

/// Runs the closed loop into a CollectSink and returns its rows.
CollectSink collect_rows(const ServiceConfig& config) {
  RunnerOptions options;
  options.threads = 2;
  ExperimentRunner runner(options);
  CollectSink rows;
  ServiceHarness(config).run_closed_loop(runner, {&rows});
  return rows;
}

TEST(ServiceHarnessTest, StarvedBatchesDecideNothingAndViolateNothing) {
  // One step per slot decides no slot: every row must say "did not
  // terminate", and nothing undecided can break agreement or validity.
  ServiceConfig config = small_config();
  config.requests = 400;
  config.max_steps_per_slot = 1;
  const CollectSink rows = collect_rows(config);
  ASSERT_FALSE(rows.reports().empty());
  for (const RunReport& report : rows.reports()) {
    EXPECT_FALSE(report.terminated);
    EXPECT_TRUE(report.agreement_ok);
    EXPECT_TRUE(report.validity_ok);
    EXPECT_FALSE(report.success);
    EXPECT_EQ(report.distinct_decisions, 0);
  }
}

TEST(ServiceHarnessTest, StabilizedDetectorNamesAKSetWinnerset) {
  ServiceConfig config = small_config();
  config.requests = 400;
  const CollectSink rows = collect_rows(config);
  ASSERT_FALSE(rows.reports().empty());
  std::size_t stabilized = 0;
  for (std::size_t b = 0; b < rows.reports().size(); ++b) {
    const RunReport& report = rows.reports()[b];
    EXPECT_TRUE(report.detector.used);
    EXPECT_EQ(report.algorithm, "kanti-omega+multishot");
    EXPECT_NE(report.schedule_hash, 0u) << "batch " << b;
    if (report.detector.stabilized) {
      ++stabilized;
      EXPECT_EQ(report.detector.winnerset.size(), config.spec.k)
          << "batch " << b;
    }
    // Every slot decides the command, so the row facts all hold.
    EXPECT_TRUE(report.terminated) << "batch " << b;
    EXPECT_TRUE(report.agreement_ok) << "batch " << b;
    EXPECT_TRUE(report.validity_ok) << "batch " << b;
    EXPECT_EQ(report.success, report.terminated && report.agreement_ok &&
                                  report.validity_ok);
  }
  EXPECT_GT(stabilized, 0u);  // the check above is not vacuous
}

/// FNV-1a over `text`, continuing from `hash`.
std::uint64_t fnv1a(std::uint64_t hash, const std::string& text) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

TEST(ServiceHarnessTest, DecidedButJudgedFailedBatchesArePinned) {
  // bench_serving's default stream (1M requests, seed 1). Batches 0
  // and 706 decide every slot, yet the detector verdict reads false:
  // batch 0 decides before any process finishes a detector iteration,
  // and batch 706's winnerset changes inside the judging window.
  const ServiceHarness harness{ServiceConfig{}};
  const AdmissionPlan plan = harness.plan();
  ASSERT_EQ(plan.batches.size(), 35'884u);

  const BatchOutcome first = harness.run_batch(plan, 0);
  EXPECT_EQ(first.decisions.size(), 1u);
  EXPECT_EQ(first.steps, 128);
  EXPECT_TRUE(first.report.success);
  EXPECT_FALSE(first.report.detector.abstract_ok);
  EXPECT_EQ(first.report.detector.min_iterations, 0);
  EXPECT_EQ(first.report.witness_bound, 3);
  EXPECT_EQ(first.report.schedule_hash, 0x37cd105d8ce2adbfULL);

  const BatchOutcome late = harness.run_batch(plan, 706);
  EXPECT_EQ(late.decisions.size(), 29u);
  EXPECT_EQ(late.steps, 2'368);
  EXPECT_TRUE(late.report.success);
  EXPECT_FALSE(late.report.detector.abstract_ok);
  EXPECT_EQ(late.report.detector.min_iterations, 11);
  EXPECT_EQ(late.report.detector.total_winnerset_changes, 4);
  EXPECT_EQ(late.report.witness_bound, 3);
  EXPECT_EQ(late.report.schedule_hash, 0xb833e589c5e05aceULL);
}

TEST(ServiceHarnessTest, ClosedLoopRowsAndDecisionsArePinned) {
  // Every row fact but schedule_hash, every annotation, and the
  // request -> decision map of small_config()'s closed loop.
  RunnerOptions options;
  options.threads = 2;
  auto [report, doc] = serve(small_config(), options);
  JsonValue facts = strip_timing_keys(doc);
  for (auto& [key, value] : facts.members()) {
    if (key != "sections") continue;
    for (JsonValue& section : value.items()) {
      for (auto& [field, rows] : section.members()) {
        if (field != "rows") continue;
        for (JsonValue& row : rows.items()) {
          auto& members = row.members();
          std::erase_if(members, [](const JsonValue::Member& member) {
            return member.first == "schedule_hash";
          });
        }
      }
    }
  }
  std::uint64_t decisions = kFnvBasis;
  for (const auto& [id, value] : report.decisions) {
    decisions = fnv1a(decisions, std::to_string(id) + ":" +
                                     std::to_string(value) + ";");
  }
  const std::string rows = canonical_json(facts);
  EXPECT_EQ(rows.find("schedule_hash"), std::string::npos);
  EXPECT_NE(rows.find("\"witness_bound\""), std::string::npos);
  EXPECT_EQ(report.decisions.size(), 2'000u);
  EXPECT_EQ(fnv1a(kFnvBasis, rows), 0xb916f49768e5e10fULL);
  EXPECT_EQ(decisions, 0xc649fdf1ff33610aULL);
}

TEST(SloReportTest, PercentilesMatchAReferenceNearestRankSort) {
  Rng rng(99);
  std::vector<std::int64_t> latencies;
  for (int i = 0; i < 1237; ++i) latencies.push_back(rng.next_in(0, 5000));

  std::vector<std::int64_t> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  const auto reference = [&](double q) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(sorted.size())));
    return static_cast<double>(
        sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1]);
  };

  EXPECT_EQ(latency_percentile(latencies, 50.0), reference(50.0));
  EXPECT_EQ(latency_percentile(latencies, 99.0), reference(99.0));
  EXPECT_EQ(latency_percentile(latencies, 99.9), reference(99.9));
  EXPECT_EQ(latency_percentile(latencies, 100.0),
            static_cast<double>(sorted.back()));
  EXPECT_EQ(latency_percentile(latencies, 0.0),
            static_cast<double>(sorted.front()));

  const SloReport slo = compute_slo(latencies, 2500, 0.9);
  EXPECT_EQ(slo.samples, 1237);
  EXPECT_EQ(slo.p50, reference(50.0));
  EXPECT_EQ(slo.p99, reference(99.0));
  EXPECT_EQ(slo.p999, reference(99.9));
  EXPECT_EQ(slo.max, static_cast<double>(sorted.back()));
  std::int64_t violations = 0;
  for (const std::int64_t latency : latencies) {
    if (latency > 2500) ++violations;
  }
  EXPECT_EQ(slo.violations, violations);
  EXPECT_DOUBLE_EQ(slo.violation_rate,
                   static_cast<double>(violations) / 1237.0);
  EXPECT_DOUBLE_EQ(slo.error_budget_burn, slo.violation_rate / 0.1);
}

TEST(SloReportTest, EmptySampleSetIsNullNotCrash) {
  const SloReport slo = compute_slo({}, 100, 0.999);
  EXPECT_EQ(slo.samples, 0);
  EXPECT_TRUE(std::isnan(slo.p50));
  EXPECT_TRUE(std::isnan(slo.max));
  EXPECT_EQ(slo.violations, 0);
  EXPECT_EQ(slo.error_budget_burn, 0.0);
}

TEST(LoadGenTest, StreamIsDeterministicAndCausallyOrdered) {
  const LoadGenConfig config{500, 77, 8};
  const LoadGen gen(config);
  const std::vector<Request> a = gen.arrivals();
  const std::vector<Request> b = gen.arrivals();
  ASSERT_EQ(a.size(), 500u);
  std::int64_t last = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<std::int64_t>(i));
    EXPECT_EQ(a[i].command, b[i].command);
    EXPECT_EQ(a[i].arrival_tick, b[i].arrival_tick);
    EXPECT_GE(a[i].arrival_tick, last);
    last = a[i].arrival_tick;
    // command(id) is stateless: it matches the materialized stream.
    EXPECT_EQ(gen.command(a[i].id), a[i].command);
  }
}

TEST(ServiceConfigTest, ValidateRejectsNonsense) {
  ServiceConfig config = small_config();
  config.batch = 0;
  EXPECT_ANY_THROW(config.validate());
  config = small_config();
  config.queue_cap = 0;
  EXPECT_ANY_THROW(config.validate());
  config = small_config();
  config.slo_target = 1.0;
  EXPECT_ANY_THROW(config.validate());
  config = small_config();
  config.spec = {1, 2, 4};  // k > t: no detector path to serve with
  EXPECT_ANY_THROW(config.validate());
}

}  // namespace
}  // namespace setlib::core
