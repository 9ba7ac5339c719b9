// The full Theorem 24 stack on real threads.
//
// Each process is a std::jthread multiplexing the Figure 2 detector and
// k Paxos instances; the pacer enforces that the first k processes stay
// timely w.r.t. the first t+1 (a live S^k_{t+1,n} system); two
// processes are crash-injected mid-run.
//
// `--repeat=N` runs N independent instances of the whole stack and
// aggregates; `--threads=M` shards the instances across the
// ExperimentRunner's persistent pool (each instance spawns its own 6
// jthreads, so keep M small).
#include <iostream>

#include "src/core/runner.h"
#include "src/core/sweep_cli.h"
#include "src/runtime/rt_harness.h"
#include "src/util/stats.h"

int main(int argc, char** argv) {
  using namespace setlib;

  const auto options =
      core::parse_cli_or_exit(argc, argv, "threaded_agreement");
  core::ExperimentRunner runner(options);

  runtime::RtRunConfig cfg;
  cfg.n = 6;
  cfg.k = 2;
  cfg.t = 3;
  cfg.bound = 6;
  cfg.crash_count = 2;
  cfg.crash_ops = 4'000;

  std::cout << "Threaded (t=3, k=2, n=6)-agreement in S^2_{4,6}: 6 "
               "jthreads,\npacer bound 6, processes 4 and 5 crash after "
               "4000 ops each.\n";
  std::cout << "Instances: " << options.repeat
            << " (sweep threads: " << runner.pool().threads() << ")\n\n";

  const std::size_t instances =
      static_cast<std::size_t>(options.repeat);
  const auto reports = runner.map<runtime::RtRunReport>(
      instances,
      [&cfg](std::size_t) { return runtime::run_kset_threaded(cfg); });
  if (reports.empty()) {
    std::cout << "shard " << options.shard.to_string()
              << " holds no instances\n";
    return 0;
  }

  const auto& report = reports.front();
  std::cout << "all done:        " << (report.all_done ? "yes" : "no")
            << "\n";
  std::cout << "faulty:          " << report.faulty << "\n";
  std::cout << "decisions:       ";
  for (int p = 0; p < cfg.n; ++p) {
    const auto& d = report.decisions[static_cast<std::size_t>(p)];
    std::cout << "p" << p << "="
              << (d.has_value() ? std::to_string(*d) : "?") << " ";
  }
  std::cout << "\n";
  std::cout << "distinct values: " << report.distinct_decisions
            << " (k = " << cfg.k << ")\n";
  std::cout << "pacer steps:     " << report.pacer_steps << "\n";
  std::cout << "witness bound:   " << report.witness_bound
            << " (measured on the linearization the pacer logged)\n";
  std::cout << "elapsed:         " << report.elapsed.count() << " ms\n";
  std::cout << "detector:        "
            << (report.detector_stabilized ? "stabilized" : "oscillating")
            << ", abstract property "
            << (report.detector_abstract_ok ? "holds" : "n/a") << "\n";
  std::cout << "verdict:         " << report.detail << "\n";

  std::size_t successes = 0;
  Summary elapsed_ms;
  for (const auto& r : reports) {
    if (r.success) ++successes;
    elapsed_ms.add(static_cast<double>(r.elapsed.count()));
  }
  if (reports.size() > 1) {
    std::cout << "aggregate:       " << successes << "/" << reports.size()
              << " instances succeeded, mean elapsed "
              << elapsed_ms.mean() << " ms, p90 "
              << elapsed_ms.percentile(90.0) << " ms\n";
  }
  const bool all_success = successes == reports.size();
  std::cout << (all_success ? "SUCCESS" : "FAILURE") << "\n";
  return all_success ? 0 : 1;
}
