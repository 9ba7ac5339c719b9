// EXP-T24 — Theorem 24 / Corollary 25: (t, k, n)-agreement is solvable
// in S^k_{t+1,n}.
//
// Tables: outcome + decision latency (steps) across (n, k, t) and crash
// patterns under the friendly family, a latency-vs-timeliness-bound
// series, and a spec × family × seed SweepGrid aggregated into the
// success-rate matrix. Everything runs through one persistent
// core::ExperimentRunner (--threads / --repeat / --cells / --json).
#include <iostream>

#include "src/core/engine.h"
#include "src/core/report.h"
#include "src/core/runner.h"
#include "src/core/solvability.h"
#include "src/core/sweep.h"
#include "src/core/sweep_cli.h"
#include "src/util/table.h"

namespace {

using namespace setlib;

void print_agreement_table(core::ExperimentRunner& runner,
                           core::JsonSink& json) {
  struct Row {
    int t, k, n, crashes;
  };
  const Row rows[] = {{1, 1, 3, 0}, {1, 1, 3, 1}, {2, 1, 4, 2},
                      {2, 2, 4, 1}, {2, 2, 5, 2}, {3, 2, 5, 3},
                      {3, 1, 5, 1}, {3, 3, 6, 3}, {4, 2, 6, 4},
                      {4, 2, 7, 2}, {2, 3, 5, 2}, {1, 2, 4, 1}};
  const std::size_t count = std::size(rows);
  const std::size_t first = runner.shard_range(count).first;

  core::WallTimer timer;
  const auto reports = runner.map<core::RunReport>(
      count, [&](std::size_t idx) {
        const Row& row = rows[idx];
        core::RunConfig cfg;
        cfg.spec = {row.t, row.k, row.n};
        cfg.system = core::matching_system(cfg.spec);
        cfg.seed = 17;
        cfg.max_steps = 4'000'000;
        if (row.crashes > 0) {
          auto plan = sched::CrashPlan::none(row.n);
          for (int c = 0; c < row.crashes; ++c) {
            plan.set_crash(row.n - 1 - c, 5'000 * (c + 1));
          }
          cfg.crashes = plan;
        }
        return core::run_agreement(cfg);
      });
  const double wall = timer.seconds();

  TextTable table({"(t,k,n)", "system", "crashes", "success", "distinct",
                   "steps to all-decided", "witness bound"});
  std::size_t successes = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const Row& row = rows[first + i];
    const core::RunReport& report = reports[i];
    const core::AgreementSpec spec{row.t, row.k, row.n};
    if (report.success) ++successes;
    table.row()
        .cell(spec.to_string())
        .cell(core::matching_system(spec).to_string())
        .cell(row.crashes)
        .cell(report.success ? "yes" : "NO")
        .cell(report.distinct_decisions)
        .cell(report.steps_executed)
        .cell(report.witness_bound);
  }
  std::cout << "EXP-T24: (t,k,n)-agreement in the matching system "
               "S^k_{t+1,n} (friendly family)\n"
            << table.render() << "\n";
  json.section("agreement_table", reports.size(), wall,
               {{"successes", static_cast<double>(successes)}});
}

void print_latency_vs_bound(core::ExperimentRunner& runner,
                            core::JsonSink& json) {
  const std::int64_t bounds[] = {2, 3, 4, 8, 16, 32, 64};
  const std::size_t count = std::size(bounds);
  const std::size_t first = runner.shard_range(count).first;

  core::WallTimer timer;
  const auto reports = runner.map<core::RunReport>(
      count, [&](std::size_t idx) {
        core::RunConfig cfg;
        cfg.spec = {2, 2, 5};
        cfg.system = core::matching_system(cfg.spec);
        cfg.timeliness_bound = bounds[idx];
        cfg.seed = 23;
        return core::run_agreement(cfg);
      });
  const double wall = timer.seconds();

  TextTable table({"enforced bound", "steps to all-decided", "success"});
  for (std::size_t i = 0; i < reports.size(); ++i) {
    table.row()
        .cell(bounds[first + i])
        .cell(reports[i].steps_executed)
        .cell(reports[i].success ? "yes" : "NO");
  }
  std::cout << "EXP-T24b: decision latency vs enforced timeliness bound "
               "((2,2,5)-agreement in S^2_{3,5})\n"
            << table.render() << "\n";
  json.section("bound_series", reports.size(), wall);
}

void print_seed_sweep(core::ExperimentRunner& runner,
                      core::JsonSink& json) {
  // EXP-T24c: the SweepGrid proper — specs × family × `--repeat` seeds
  // in the matching system, folded into the success-rate matrix.
  core::SweepGrid grid;
  grid.add_spec({1, 1, 3})
      .add_spec({2, 2, 5})
      .add_spec({3, 2, 5})
      .add_family(core::ScheduleFamily::kEnforcedRandom)
      .repeats(runner.options().repeat)
      .base_seed(17);
  core::RunConfig proto;
  proto.max_steps = 2'000'000;
  grid.prototype(proto);

  core::TableSink table;
  core::AggregateSink agg;
  runner.run(grid, "seed_sweep", {&table, &agg, &json});
  std::cout << "EXP-T24c: friendly-family seed sweep (repeat="
            << runner.options().repeat
            << ", threads=" << runner.pool().threads() << ", "
            << agg.aggregate().cells << " cells, "
            << agg.aggregate().runs_per_second() << " runs/sec)\n"
            << table.render() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      core::parse_cli_or_exit(argc, argv, "thm24_agreement");
  core::ExperimentRunner runner(options);
  core::JsonSink json = runner.json_sink();
  print_agreement_table(runner, json);
  print_latency_vs_bound(runner, json);
  print_seed_sweep(runner, json);
  if (!json.write_if_requested()) return 1;
  return 0;
}
