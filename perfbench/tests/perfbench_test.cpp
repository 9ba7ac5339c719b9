// Self-tests of the benchmark's own code: percentile math, the interval
// estimator under an injected slow episode, round grouping, and the
// failure counting.
//
//   ctest --test-dir .bench_build/perfbench
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "checks.h"
#include "estimator.h"
#include "src/util/rng.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::fabs(b);
}

namespace core = setlib::core;

void percentile_math() {
  std::vector<double> one_to_hundred;
  for (int v = 1; v <= 100; ++v) one_to_hundred.push_back(v);
  CHECK(perfbench::nearest_rank(one_to_hundred, 50) == 50);
  // p90 of 100 samples leaves exactly 10 beyond it.
  CHECK(perfbench::nearest_rank(one_to_hundred, 90) == 90);
  CHECK(perfbench::nearest_rank(one_to_hundred, 0) == 1);
  CHECK(perfbench::nearest_rank(one_to_hundred, 100) == 100);
  CHECK(perfbench::nearest_rank({7.0}, 90) == 7.0);
  CHECK(std::isnan(perfbench::nearest_rank({}, 50)));

  // Interpolated: (n-1)p, matching numpy's default.
  CHECK(perfbench::interpolated({1, 2, 3, 4}, 50) == 2.5);
  CHECK(perfbench::interpolated({4, 1, 3, 2}, 0) == 1);
  CHECK(perfbench::interpolated({4, 1, 3, 2}, 100) == 4);
  CHECK(near(perfbench::interpolated({10, 20}, 90), 19, 1e-12));
  CHECK(perfbench::median({3, 1, 2}) == 2);
  CHECK(std::isnan(perfbench::median({})));
}

void span_sampler_covers_the_run() {
  perfbench::SpanSampler sampler;
  constexpr int kOffers = 100000;
  for (int v = 1; v <= kOffers; ++v) sampler.add(v);
  const std::vector<double>& kept = sampler.samples();
  CHECK(sampler.offered() == kOffers);
  CHECK(kept.size() > perfbench::SpanSampler::kCapacity / 2);
  CHECK(kept.size() <= perfbench::SpanSampler::kCapacity);
  // Evenly strided over the whole run, so quantiles carry over.
  const double stride = kept[1] - kept[0];
  for (std::size_t i = 1; i < kept.size(); ++i) {
    CHECK(kept[i] - kept[i - 1] == stride);
  }
  CHECK(kept.front() <= stride && kept.back() > kOffers - stride);
  CHECK(std::fabs(perfbench::interpolated(kept, 10) - 0.1 * kOffers) <= stride);

  // The minimum sees every offer, including those the thinning skips.
  CHECK(sampler.min() == 1);
  sampler.add(-5);
  CHECK(sampler.min() == -5);

  perfbench::SpanSampler few;
  for (int v = 0; v < 10; ++v) few.add(v);
  CHECK(few.samples().size() == 10);  // below capacity: every sample
}

/// 60 cycles over 100 ops; op c costs (1 + c/100) ms with +-5% jitter.
/// Cycles [from, to) run 1.5x slower.
struct SyntheticRun {
  std::vector<perfbench::Interval> intervals;
  std::vector<perfbench::SpanSampler> ops{100};
};

SyntheticRun synthetic_run(std::uint64_t seed, int from, int to) {
  setlib::Rng rng(seed);
  SyntheticRun run;
  for (int i = 0; i < 60; ++i) {
    const double slow = (i >= from && i < to) ? 1.5 : 1.0;
    double wall = 0.0;
    for (int c = 0; c < 100; ++c) {
      const double jitter = 0.95 + 0.1 * rng.next_double();
      const double latency = 1e-3 * (1.0 + c / 100.0) * jitter * slow;
      run.ops[static_cast<std::size_t>(c)].add(latency);
      wall += latency;
    }
    run.intervals.push_back(perfbench::Interval{100, wall});
  }
  return run;
}

void estimator_ignores_a_slow_episode() {
  const SyntheticRun calm_run = synthetic_run(7, 0, 0);
  const perfbench::FastEnd calm =
      perfbench::fast_end(calm_run.intervals, calm_run.ops);
  // A 1.5x episode over 40% of the run, in the middle and at the start.
  for (const auto& [from, to] : {std::pair{20, 44}, std::pair{0, 24}}) {
    const SyntheticRun run = synthetic_run(7, from, to);
    const perfbench::FastEnd noisy = perfbench::fast_end(run.intervals, run.ops);
    // Within the +-5% jitter band: fewer fast samples per op may raise
    // its minimum a little, the 1.5x episode not at all.
    CHECK(near(noisy.throughput_per_s, calm.throughput_per_s, 0.02));
    CHECK(near(noisy.p50_s, calm.p50_s, 0.02));
    CHECK(near(noisy.p90_s, calm.p90_s, 0.02));

    // The whole-run mean, by contrast, moves by ~20%.
    double ops = 0.0;
    double wall = 0.0;
    for (const perfbench::Interval& s : run.intervals) {
      ops += s.ops;
      wall += s.wall_s;
    }
    CHECK(!near(ops / wall, calm.throughput_per_s, 0.1));
  }
  // The fast ends sit at the low edge of the jitter band.
  CHECK(near(calm.p50_s, 1.5e-3 * 0.95, 0.02));
  CHECK(near(calm.p90_s, 1.9e-3 * 0.95, 0.02));
  CHECK(near(calm.throughput_per_s, 100 / (0.15 * 1.003), 0.02));
}

void fast_end_sums_rounds() {
  // Four ops in two rounds: op i belongs to round i % 2.
  std::vector<perfbench::SpanSampler> ops(4);
  const double cost[] = {1, 2, 10, 20};
  for (int pass = 1; pass <= 3; ++pass) {
    for (std::size_t i = 0; i < ops.size(); ++i) ops[i].add(cost[i] * pass);
  }
  const std::vector<perfbench::Interval> one{{4, 1.0}};
  const perfbench::FastEnd rounds = perfbench::fast_end(one, ops, 2);
  CHECK(rounds.p50_s == 1 + 10);
  CHECK(rounds.p90_s == 2 + 20);
  const perfbench::FastEnd single = perfbench::fast_end(one, ops);
  CHECK(single.p50_s == 2);
  CHECK(single.p90_s == 20);
}

void serve_failure_counting() {
  core::ClosedLoopReport report;
  for (std::int64_t id = 0; id < 4; ++id) {
    report.plan.admitted.push_back(core::Request{id, 100 + id, id});
    report.decisions.emplace_back(id, 100 + id);
  }
  CHECK(perfbench::serve_failures(report) == 0);
  report.plan.shed = 2;
  CHECK(perfbench::serve_failures(report) == 2);
  report.decisions[1].second = -1;  // undecided slot
  report.decisions[3].second = 7;   // decided someone else's command
  CHECK(perfbench::serve_failures(report) == 4);
  report.decisions.pop_back();  // a request never decided at all
  CHECK(perfbench::serve_failures(report) == 4);
  report.decisions.pop_back();
  CHECK(perfbench::serve_failures(report) == 5);  // index 2 now missing
}

void cell_failure_counting() {
  core::RunReport ok;
  ok.agreement_ok = ok.validity_ok = ok.terminated = true;
  core::RunReport stuck = ok;
  stuck.terminated = false;
  core::RunReport unsafe = ok;
  unsafe.agreement_ok = false;
  core::RunReport invalid = ok;
  invalid.validity_ok = false;
  for (const auto family : {core::ScheduleFamily::kEnforcedRandom,
                            core::ScheduleFamily::kRotisserie,
                            core::ScheduleFamily::kBudgetCrasher}) {
    CHECK(!perfbench::cell_failed(family, ok));
    CHECK(perfbench::cell_failed(family, unsafe));
    CHECK(perfbench::cell_failed(family, invalid));
  }
  // Only the friendly family must terminate.
  CHECK(perfbench::cell_failed(core::ScheduleFamily::kEnforcedRandom, stuck));
  CHECK(!perfbench::cell_failed(core::ScheduleFamily::kRotisserie, stuck));
}

void census_failure_counting() {
  core::PairScanConfig enforced;  // n = 24, i = 2, j = 23, cap 3
  core::PairScanConfig starver = enforced;
  starver.enforced_bound = 0;
  core::PairScanResult witness;
  witness.pairs = 276 * 24;
  witness.members = 3;
  witness.found = true;
  witness.first = setlib::sched::TimelyPair{setlib::ProcSet::range(0, 2),
                                            setlib::ProcSet::range(0, 23), 3};
  CHECK(!perfbench::census_failed(enforced, witness));
  CHECK(perfbench::census_failed(starver, witness));

  core::PairScanResult other = witness;  // a member, but not the pair
  other.first.timely_set = setlib::ProcSet::range(1, 3);
  CHECK(perfbench::census_failed(enforced, other));

  core::PairScanResult empty;
  empty.pairs = witness.pairs;
  CHECK(perfbench::census_failed(enforced, empty));
  CHECK(!perfbench::census_failed(starver, empty));

  core::PairScanResult partial = empty;  // skipped pairs
  partial.pairs -= 1;
  CHECK(perfbench::census_failed(starver, partial));

  // End to end on the real analyzer: both census kinds pass.
  core::ExperimentRunner runner;
  enforced.len = starver.len = 4000;
  CHECK(!perfbench::census_failed(enforced,
                                  core::ranked_pair_scan(enforced, runner)));
  CHECK(!perfbench::census_failed(starver,
                                  core::ranked_pair_scan(starver, runner)));
}

}  // namespace

int main() {
  percentile_math();
  span_sampler_covers_the_run();
  estimator_ignores_a_slow_episode();
  fast_end_sums_rounds();
  serve_failure_counting();
  cell_failure_counting();
  census_failure_counting();
  if (g_failures == 0) std::printf("perfbench_tests: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
