// EXP-F2 — Figure 2 reproduction: the t-resilient k-anti-Omega
// detector in S^k_{t+1,n}.
//
// Series: steps and loop iterations to stabilization across (n, k, t),
// with and without crashes, plus the per-iteration register-operation
// cost model |Pi_n^k| * n + n + 1 + |Pi_n^k|. Every series' rows are
// independent simulator runs, so they shard across the persistent
// ExperimentRunner pool (--threads / --cells).
//
// EXP-F2d sweeps system membership at detector-infeasible sizes: for
// n up to 28, the batched sched::RankedPairScan censuses every
// C(n,2) x C(n,n-1) pair on witness-enforced vs i-subset-starver
// schedules, with the P-rank chunks driven through the runner pool.
#include <iostream>
#include <memory>

#include "src/core/experiments.h"
#include "src/core/runner.h"
#include "src/core/sweep_cli.h"
#include "src/fd/kantiomega.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"
#include "src/util/table.h"

namespace {

using namespace setlib;

void print_convergence_table(core::ExperimentRunner& runner,
                             core::JsonSink& json) {
  struct Row {
    int n, k, t, crashes;
  };
  const Row rows[] = {{3, 1, 1, 0}, {3, 1, 1, 1}, {4, 1, 2, 0},
                      {4, 1, 2, 2}, {4, 2, 2, 1}, {5, 2, 2, 0},
                      {5, 2, 3, 3}, {6, 2, 3, 2}, {6, 3, 3, 0},
                      {7, 3, 4, 2}, {8, 2, 4, 3}};
  const std::size_t count = std::size(rows);
  const std::size_t first = runner.shard_range(count).first;

  core::WallTimer timer;
  const auto results = runner.map<core::DetectorRunResult>(
      count, [&](std::size_t idx) {
        const Row& row = rows[idx];
        core::DetectorRunConfig cfg;
        cfg.n = row.n;
        cfg.k = row.k;
        cfg.t = row.t;
        cfg.crash_count = row.crashes;
        cfg.crash_step = 20'000;
        cfg.seed = 7;
        cfg.max_steps = 3'000'000;
        return core::run_detector_convergence(cfg);
      });
  const double wall = timer.seconds();

  TextTable table({"n", "k", "t", "crashes", "stabilized", "property",
                   "winnerset", "steps", "iterations", "ops/iteration"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Row& row = rows[first + i];
    const auto& result = results[i];
    table.row()
        .cell(row.n)
        .cell(row.k)
        .cell(row.t)
        .cell(row.crashes)
        .cell(result.stabilized ? "yes" : "NO")
        .cell(result.property_ok ? "ok" : "FAIL")
        .cell(result.winnerset.to_string())
        .cell(result.steps)
        .cell(result.max_iterations)
        .cell(result.ops_per_iteration);
  }
  std::cout << "EXP-F2: Figure 2 detector convergence in S^k_{t+1,n}\n"
            << "(enforced witness bound 3 over seeded asynchrony; "
               "crashes at step 20000)\n"
            << table.render() << "\n";
  json.section("convergence", results.size(), wall);
}

void print_bound_sensitivity(core::ExperimentRunner& runner,
                             core::JsonSink& json) {
  // EXP-F2b: the timely set steps only when the enforcer injects it
  // (weight ~0), so the schedule's synchrony quality IS the bound;
  // detector convergence cost grows with it.
  const std::int64_t bounds[] = {2, 4, 8, 16, 32, 64, 128};
  const std::size_t count = std::size(bounds);
  const std::size_t first = runner.shard_range(count).first;

  core::WallTimer timer;
  const auto results = runner.map<core::DetectorRunResult>(
      count, [&](std::size_t idx) {
        core::DetectorRunConfig cfg;
        cfg.n = 5;
        cfg.k = 2;
        cfg.t = 2;
        cfg.bound = bounds[idx];
        cfg.timely_weight = 0.001;
        cfg.seed = 3;
        cfg.max_steps = 6'000'000;
        return core::run_detector_convergence(cfg);
      });
  const double wall = timer.seconds();

  TextTable table({"enforced bound", "stabilized", "steps",
                   "iterations (slowest correct)"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    table.row()
        .cell(bounds[first + i])
        .cell(results[i].stabilized ? "yes" : "NO")
        .cell(results[i].steps)
        .cell(results[i].max_iterations);
  }
  std::cout << "EXP-F2b: detector convergence vs synchrony quality "
               "(n=5, k=2, t=2; witness set scheduled once per `bound` "
               "observer steps)\n"
            << table.render() << "\n";
  json.section("bound_sensitivity", results.size(), wall);
}

void print_gst_series(core::ExperimentRunner& runner,
                      core::JsonSink& json) {
  // EXP-F2c: eventual set timeliness. The schedule is a k-subset
  // starver (no k-set timely) until GST, then an enforced witness at
  // bound 3. Reported: steps AFTER GST until the detector stabilizes —
  // the recovery cost is roughly GST-independent (timeouts adapt).
  const int n = 5, k = 2, t = 2;
  const std::int64_t gsts[] = {0, 20'000, 100'000, 400'000, 1'000'000};
  const std::size_t count = std::size(gsts);
  const std::size_t first = runner.shard_range(count).first;

  struct GstResult {
    bool stabilized = false;
    std::int64_t steps_after_gst = 0;
    std::int64_t min_iterations = 0;
  };

  core::WallTimer timer;
  const auto results = runner.map<GstResult>(
      count, [&](std::size_t idx) {
        const std::int64_t gst = gsts[idx];
        shm::SimMemory mem;
        fd::KAntiOmega detector(mem, fd::KAntiOmega::Params{n, k, t, 1});
        shm::Simulator sim(mem, n);
        for (Pid p = 0; p < n; ++p) {
          sim.process(p).add_task(detector.run(p), "fd");
        }
        auto before = std::make_unique<sched::KSubsetStarverGenerator>(
            n, ProcSet::universe(n), k, 400);
        auto base = std::make_unique<sched::UniformRandomGenerator>(n, 7);
        auto after = sched::EnforcedGenerator::single(
            std::move(base),
            sched::TimelinessConstraint(ProcSet::range(0, k),
                                        ProcSet::range(0, t + 1), 3));
        sched::SwitchGenerator gen(std::move(before), std::move(after),
                                   gst);
        const ProcSet all = ProcSet::universe(n);
        // Only accept stabilization reached after GST: transient quiet
        // stretches inside the chaos phase can look stable for a small
        // window.
        const std::int64_t steps =
            sim.run_until(gen, gst + 3'000'000, [&] {
              return sim.steps_taken() > gst &&
                     detector.stabilized(all, 12);
            });
        GstResult out;
        out.stabilized = detector.stabilized(all, 6);
        out.steps_after_gst = steps > gst ? steps - gst : 0;
        std::int64_t min_it = -1;
        for (Pid p = 0; p < n; ++p) {
          const auto it = detector.view(p).iterations;
          min_it = min_it < 0 ? it : std::min(min_it, it);
        }
        out.min_iterations = min_it;
        return out;
      });
  const double wall = timer.seconds();

  TextTable table({"GST step", "stabilized", "steps after GST",
                   "iterations (slowest)"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    table.row()
        .cell(gsts[first + i])
        .cell(results[i].stabilized ? "yes" : "NO")
        .cell(results[i].steps_after_gst)
        .cell(results[i].min_iterations);
  }
  std::cout << "EXP-F2c: recovery after eventual synchrony (GST) — "
               "adversarial k-subset starvation before GST, enforced "
               "witness after (n=5, k=2, t=2)\n"
            << table.render() << "\n";
  json.section("gst_series", results.size(), wall);
}

void print_largen_membership(core::ExperimentRunner& runner,
                             core::JsonSink& json) {
  // EXP-F2d: the large-n detector sweep. Running Figure 2 itself at
  // n = 24 is infeasible for k > 2 (|Pi_n^k| registers), but system
  // membership — is the schedule in S^2_{n-1,n}, and how many (P, Q)
  // pairs certify it? — is exactly what the batched pair scan answers.
  // n = 28 (C(28,2) x 28 = 10584 pairs per census) rides on the
  // pair scan's one window walk, compiled for popcnt where the host has
  // it; each worker's scan scratch lives on its pool arena, so the
  // census itself is allocation-free at steady state.
  struct Row {
    int n;
    bool enforced;  // witness-enforced vs 2-subset starver
  };
  const Row rows[] = {{16, true},  {16, false}, {20, true},
                      {20, false}, {24, true},  {24, false},
                      {28, true},  {28, false}};
  const std::size_t count = std::size(rows);

  core::WallTimer timer;
  std::vector<core::PairScanResult> results;
  results.reserve(count);
  for (const Row& row : rows) {
    // Each census internally maps its P-rank chunks through the
    // runner's pool and shard; the row loop stays serial so the table
    // is a pure function of the row index.
    core::PairScanConfig cfg;
    cfg.n = row.n;
    cfg.i = 2;
    cfg.j = row.n - 1;
    cfg.len = 40'000;
    cfg.seed = 11;
    cfg.bound_cap = 3;
    cfg.enforced_bound = row.enforced ? 3 : 0;
    results.push_back(core::ranked_pair_scan(cfg, runner));
  }
  const double wall = timer.seconds();

  TextTable table({"n", "schedule", "pairs scanned", "members (cap 3)",
                   "first witness", "bound"});
  for (std::size_t r = 0; r < count; ++r) {
    const auto& result = results[r];
    table.row()
        .cell(rows[r].n)
        .cell(rows[r].enforced ? "enforced witness" : "2-subset starver")
        .cell(result.pairs)
        .cell(result.members)
        .cell(result.found ? result.first.timely_set.to_string() +
                                 " vs " +
                                 result.first.observed_set.to_string()
                           : "none")
        .cell(result.found ? result.first.bound : 0);
  }
  std::cout << "EXP-F2d: S^2_{n-1,n} membership census at large n "
               "(RankedPairScan, cap 3, 40k-step prefixes)\n"
            << table.render() << "\n";
  // Every shard walks all eight census rows (each census shards its
  // pair chunks internally), so the section's "cells" must be this
  // shard's slice of the row space — like every other hand-fed
  // section — or the shard merge would sum the full count N times.
  const auto [cells_begin, cells_end] = runner.shard_range(count);
  json.section("largen_membership", cells_end - cells_begin, wall);
  // n_max is a run invariant (kSame); the census member counts below
  // come out of the runner's shard slice, so shards sum to the
  // unsharded counts (the default rule).
  json.annotate("n_max", 28.0, core::MergeRule::kSame);
  for (std::size_t r = 0; r < count; ++r) {
    if (rows[r].n == 24) {
      json.annotate(rows[r].enforced ? "members_n24_enforced"
                                     : "members_n24_starver",
                    static_cast<double>(results[r].members));
    } else if (rows[r].n == 28) {
      json.annotate(rows[r].enforced ? "members_n28_enforced"
                                     : "members_n28_starver",
                    static_cast<double>(results[r].members));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      core::parse_cli_or_exit(argc, argv, "fig2_detector");
  core::ExperimentRunner runner(options);
  core::JsonSink json = runner.json_sink();
  print_convergence_table(runner, json);
  print_bound_sensitivity(runner, json);
  print_gst_series(runner, json);
  print_largen_membership(runner, json);
  if (!json.write_if_requested()) return 1;
  return 0;
}
