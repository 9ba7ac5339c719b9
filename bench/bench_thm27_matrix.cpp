// EXP-T27 — the paper's main result as a table.
//
// For each (t, k, n), every system S^i_{j,n} is run against an
// adversarial schedule family that provably lies in it, and the
// observable frontier — does the Figure 2 algorithm still implement
// t-resilient k-anti-Omega? — is compared against the Theorem 27
// predicate: solvable iff i <= k and j - i >= t + 1 - k.
//
// The (i, j) cells of every matrix run through one persistent
// core::ExperimentRunner; `--threads=N` spreads them across the
// worker pool with bit-identical cell results at any N,
// `--cells=LO..HI[/SPAN]` slices the cell space across processes, and `--json`
// records the per-matrix trajectory (cells/wall/throughput plus
// per-cell rows) in BENCH_thm27_matrix.json. Each cell's reported
// witness_bound is measured on the executed schedule by the
// word-packed analyzer (sched::min_timeliness_bound). The bench exits
// non-zero when any cell it ran contradicts the predicate.
#include <iostream>

#include "src/core/experiments.h"
#include "src/core/sweep_cli.h"

namespace {

using namespace setlib;

// Returns the number of cells that contradict Theorem 27.
int print_matrices(core::ExperimentRunner& runner, core::JsonSink& json) {
  struct Spec {
    int t, k, n;
  };
  const Spec specs[] = {{2, 1, 4}, {2, 2, 5}, {3, 2, 5}, {3, 1, 5},
                        {3, 3, 6}};
  int mismatches = 0;
  int cells = 0;
  for (const auto& spec : specs) {
    core::MatrixConfig cfg;
    cfg.spec = {spec.t, spec.k, spec.n};
    cfg.max_steps = 900'000;
    const auto matrix = core::thm27_matrix(cfg, runner, {&json});
    std::cout << core::render_matrix(cfg.spec, matrix) << "\n";
    int spec_mismatches = 0;
    for (const auto& cell : matrix) {
      ++cells;
      if (!cell.matches) {
        ++mismatches;
        ++spec_mismatches;
      }
    }
    json.annotate("mismatches", static_cast<double>(spec_mismatches));
  }
  std::cout << "EXP-T27 summary: " << cells - mismatches << "/" << cells
            << " cells match the Theorem 27 frontier (threads="
            << runner.pool().threads() << ")\n\n";
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      core::parse_cli_or_exit(argc, argv, "thm27_matrix");
  core::ExperimentRunner runner(options);
  core::JsonSink json = runner.json_sink();
  const int mismatches = print_matrices(runner, json);
  if (!json.write_if_requested()) return 1;
  return mismatches == 0 ? 0 : 1;
}
