// EXP-F1 — Figure 1 reproduction.
//
// The paper's Figure 1 exhibits S = [(p1 q)^i (p2 q)^i]_{i>=1} and
// claims that neither {p1} nor {p2} is timely w.r.t. {q}, while the
// set {p1, p2} — viewed as one virtual process — is. The table prints
// the minimal timeliness bound of each candidate on growing prefixes:
// the singleton bounds diverge linearly with the phase index, the
// union's bound is the constant 2.
//
// The growing-prefix series is computed by incremental BoundTrackers
// (one O(len) pass per candidate pair). EXP-F1b extends the series to
// 64 phases and times the retired per-cut rescan
// (min_timeliness_bound_reference, the pre-word-packed analyzer) on
// the same grid: the bench cross-checks both series bit-for-bit and
// records the measured speedup as annotations on the figure1 section
// of BENCH_fig1_timeliness.json (series_phases and rescan_match, plus
// series_wall_seconds, rescan_wall_seconds and speedup_vs_rescan
// under the section's "timing").
#include <iostream>

#include "src/core/experiments.h"
#include "src/core/report.h"
#include "src/core/sweep.h"
#include "src/core/sweep_cli.h"
#include "src/sched/analyzer.h"
#include "src/sched/generators.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace {

using namespace setlib;

void print_figure1_table(core::ExperimentRunner& runner,
                         core::JsonSink& json) {
  const std::int64_t phases = 16;
  core::WallTimer timer;
  const auto rows = core::figure1_rows(phases, runner);
  const double wall = timer.seconds();

  TextTable table({"phase i", "prefix steps", "bound {p1} vs {q}",
                   "bound {p2} vs {q}", "bound {p1,p2} vs {q}"});
  for (const auto& row : rows) {
    table.row()
        .cell(row.phase)
        .cell(row.prefix_len)
        .cell(row.bound_p1)
        .cell(row.bound_p2)
        .cell(row.bound_union);
  }
  std::cout << "EXP-F1: Figure 1, S = [(p1 q)^i (p2 q)^i]\n"
            << "Claim: singleton bounds diverge; the union is timely "
               "with bound 2.\n"
            << table.render() << "\n";
  json.section("figure1", rows.size(), wall);
}

void print_series_speedup(core::ExperimentRunner& runner,
                          core::JsonSink& json) {
  // EXP-F1b: the same series at 64 phases (~8.3k steps). Incremental
  // trackers pay O(len) once; the retired analyzer rescans every
  // prefix, O(len^2) across the cuts.
  const std::int64_t phases = 64;
  core::WallTimer timer;
  const auto rows = core::figure1_rows(phases, runner);
  const double wall = timer.seconds();

  // Like-for-like legacy run: generate the same schedule and rescan
  // every prefix of the full series (both timed walls cover schedule
  // generation plus all `phases` cuts, regardless of --cells).
  core::WallTimer rescan_timer;
  sched::Figure1Generator gen(3, 0, 1, 2);
  const std::int64_t total =
      sched::Figure1Generator::steps_through_phase(phases);
  const sched::Schedule s = sched::generate(gen, total);
  struct RefRow {
    std::int64_t p1, p2, both;
  };
  std::vector<RefRow> ref;
  ref.reserve(static_cast<std::size_t>(phases));
  for (std::int64_t phase = 1; phase <= phases; ++phase) {
    const std::int64_t cut =
        sched::Figure1Generator::steps_through_phase(phase);
    ref.push_back(
        {sched::min_timeliness_bound_reference(s, ProcSet::of(0),
                                               ProcSet::of(2), 0, cut),
         sched::min_timeliness_bound_reference(s, ProcSet::of(1),
                                               ProcSet::of(2), 0, cut),
         sched::min_timeliness_bound_reference(s, ProcSet::of({0, 1}),
                                               ProcSet::of(2), 0, cut)});
  }
  const double rescan_wall = rescan_timer.seconds();
  const double speedup = wall > 0.0 ? rescan_wall / wall : 0.0;

  bool match = true;
  const std::size_t first =
      runner.shard_range(static_cast<std::size_t>(phases)).first;
  for (std::size_t r = 0; r < rows.size(); ++r) {  // this shard's slice
    const RefRow& expected = ref[first + r];
    match &= rows[r].bound_p1 == expected.p1;
    match &= rows[r].bound_p2 == expected.p2;
    match &= rows[r].bound_union == expected.both;
  }

  std::cout << "EXP-F1b: " << phases << "-phase series ("
            << total << " steps), incremental trackers vs per-prefix "
               "rescan\n"
            << "  incremental: " << wall << " s   rescan: " << rescan_wall
            << " s   speedup: " << speedup << "x   bounds "
            << (match ? "bit-identical" : "MISMATCH") << "\n\n";
  // Recorded as annotations on the figure1 section: the rescan is a
  // deliberately-slow legacy cross-check, not a grid of its own.
  // series_phases and rescan_match are run invariants — every shard
  // (and the unsharded run) reports the same value, so the shard
  // merge must keep them, not sum them. The wall/speedup annotations
  // are timing facts and never merge.
  json.annotate("series_phases", static_cast<double>(phases),
                core::MergeRule::kSame);
  json.annotate("series_wall_seconds", wall, core::MergeRule::kTiming);
  json.annotate("rescan_wall_seconds", rescan_wall,
                core::MergeRule::kTiming);
  json.annotate("speedup_vs_rescan", speedup, core::MergeRule::kTiming);
  json.annotate("rescan_match", match ? 1.0 : 0.0,
                core::MergeRule::kSame);
}

void print_family_sweep(core::ExperimentRunner& runner,
                        core::JsonSink& json) {
  // EXP-F1c: the Figure 1 setting (n = 3) under the randomized
  // adversary families, `--repeat` seeds per point. The grid section
  // ("adversary_families") carries the multi-seed dispersion keys
  // (steps_mean/stddev, witness_bound_mean/stddev, success_rate and
  // their ci_* 95% intervals) in BENCH_fig1_timeliness.json.
  core::SweepGrid grid;
  core::RunConfig proto;
  proto.max_steps = 200'000;
  grid.add_spec({1, 1, 3})
      .add_family(core::ScheduleFamily::kEnforcedRandom);
  for (const auto family : core::randomized_families()) {
    grid.add_family(family);
  }
  // One bound only: the enforced bound matters to the friendly family
  // alone (the randomized adversaries ignore it), so a bound axis
  // would just duplicate the randomized rows under a misleading label.
  grid.add_bound(2)
      .repeats(runner.options().repeat)
      .base_seed(29)
      .prototype(proto);

  core::TableSink table;
  core::AggregateSink agg;
  runner.run(grid, "adversary_families", {&table, &agg, &json});
  const core::SweepAggregate& a = agg.aggregate();
  std::cout << "EXP-F1c: (1,1,3)-agreement vs the adversary families "
               "(repeat=" << runner.options().repeat << ")\n"
            << table.render();
  if (!a.witness_bound.empty()) {
    std::cout << "  witness bound mean " << a.witness_bound.mean()
              << " +/- " << ci95_halfwidth(a.witness_bound)
              << " (95% CI over " << a.cells << " cells)\n";
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      core::parse_runner_options(argc, argv, "fig1_timeliness");
  core::ExperimentRunner runner(options);
  core::JsonSink json = runner.json_sink();
  print_figure1_table(runner, json);
  print_series_speedup(runner, json);
  print_family_sweep(runner, json);
  json.write_if_requested();
  return 0;
}
