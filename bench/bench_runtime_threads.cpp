// EXP-RT — the threaded runtime: end-to-end (t, k, n)-agreement on real
// std::jthreads under the set-timeliness pacer, one row per (t, k, n)
// and crash count.
//
// Each table row spawns its own n jthreads, so the default sweep width
// is 1; `--threads=N` runs N rows' jthread groups concurrently
// (oversubscription is safe — the pacer serializes inside a row).
//
// The solo-run columns measure the pacer's hand-off: a solo run is a
// maximal stretch of consecutive steps by one process in the order the
// steps ran (RtRunReport::schedule), so long runs mean a thread that
// leaves the pacer's gate mostly takes it straight back.
#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "src/core/runner.h"
#include "src/core/sweep_cli.h"
#include "src/runtime/rt_harness.h"
#include "src/util/table.h"

namespace {

using namespace setlib;

struct SoloRuns {
  std::int64_t longest = 0;
  double mean = 0.0;  // steps per run
};

SoloRuns solo_runs(const sched::Schedule& s) {
  SoloRuns out;
  std::int64_t runs = 0;
  std::int64_t length = 0;
  Pid last = -1;
  for (const Pid p : s.steps()) {
    if (p != last) {
      ++runs;
      length = 0;
      last = p;
    }
    out.longest = std::max(out.longest, ++length);
  }
  if (runs > 0) out.mean = static_cast<double>(s.size()) / runs;
  return out;
}

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
                   "pacer steps", "elapsed ms", "witness bound",
                   "longest solo run", "mean solo run"});
  for (std::size_t idx = 0; idx < reports.size(); ++idx) {
    const Row& row = rows[first + idx];
    const auto& report = reports[idx];
    std::string spec("(");
    spec.append(std::to_string(row.t)).append(",");
    spec.append(std::to_string(row.k)).append(",");
    spec.append(std::to_string(row.n)).append(")");
    const SoloRuns solo = solo_runs(report.schedule);
    std::ostringstream mean;
    mean << std::fixed << std::setprecision(2) << solo.mean;
    table.row()
        .cell(spec)
        .cell(row.crashes)
        .cell(report.success ? "yes" : "NO")
        .cell(report.distinct_decisions)
        .cell(report.pacer_steps)
        .cell(report.elapsed.count())
        .cell(report.witness_bound)
        .cell(solo.longest)
        .cell(mean.str());
  }
  std::cout << "EXP-RT: threaded Theorem 24 stack (jthreads + pacer)\n"
            << table.render() << "\n";
  json.section("rt_table", reports.size(), wall);
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      core::parse_cli_or_exit(argc, argv, "runtime_threads");
  core::ExperimentRunner runner(options);
  core::JsonSink json = runner.json_sink();
  print_rt_table(runner, json);
  if (!json.write_if_requested()) return 1;
  return 0;
}
