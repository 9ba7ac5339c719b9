// EXP-RT — the threaded runtime: end-to-end (t, k, n)-agreement on real
// std::jthreads under the set-timeliness pacer, one row per (t, k, n)
// and crash count.
//
// Each table row spawns its own n jthreads, so the default sweep width
// is 1; `--threads=N` runs N rows' jthread groups concurrently
// (oversubscription is safe — the pacer serializes inside a row).
#include <iostream>

#include "src/core/runner.h"
#include "src/core/sweep_cli.h"
#include "src/runtime/rt_harness.h"
#include "src/util/table.h"

namespace {

using namespace setlib;

void print_rt_table(core::ExperimentRunner& runner,
                    core::JsonSink& json) {
  struct Row {
    int t, k, n, crashes;
  };
  const Row rows[] = {{1, 1, 3, 0}, {2, 1, 4, 1}, {2, 2, 5, 2},
                      {3, 2, 6, 2}, {3, 3, 6, 3}, {4, 2, 8, 3}};
  const std::size_t count = std::size(rows);
  const std::size_t first = runner.shard_range(count).first;

  core::WallTimer timer;
  const auto reports = runner.map<runtime::RtRunReport>(
      count, [&](std::size_t idx) {
        const Row& row = rows[idx];
        runtime::RtRunConfig cfg;
        cfg.n = row.n;
        cfg.k = row.k;
        cfg.t = row.t;
        cfg.crash_count = row.crashes;
        cfg.crash_ops = 2'000;
        return runtime::run_kset_threaded(cfg);
      });
  const double wall = timer.seconds();

  TextTable table({"(t,k,n)", "crashes", "success", "distinct",
                   "pacer steps", "elapsed ms", "witness bound"});
  for (std::size_t idx = 0; idx < reports.size(); ++idx) {
    const Row& row = rows[first + idx];
    const auto& report = reports[idx];
    std::string spec("(");
    spec.append(std::to_string(row.t)).append(",");
    spec.append(std::to_string(row.k)).append(",");
    spec.append(std::to_string(row.n)).append(")");
    table.row()
        .cell(spec)
        .cell(row.crashes)
        .cell(report.success ? "yes" : "NO")
        .cell(report.distinct_decisions)
        .cell(report.pacer_steps)
        .cell(report.elapsed.count())
        .cell(report.witness_bound);
  }
  std::cout << "EXP-RT: threaded Theorem 24 stack (jthreads + pacer)\n"
            << table.render() << "\n";
  json.section("rt_table", reports.size(), wall);
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      core::parse_runner_options(argc, argv, "runtime_threads");
  core::ExperimentRunner runner(options);
  core::JsonSink json = runner.json_sink();
  print_rt_table(runner, json);
  json.write_if_requested();
  return 0;
}
