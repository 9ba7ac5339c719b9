// EXP-ABL — ablation of the Figure 2 accusation quantile.
//
// The algorithm aggregates Counter[A, *] with the (t+1)-st smallest
// entry. This bench shows the choice is tight from both sides, on two
// schedules that are both legitimately in S^k_{t+1,n}:
//   scenario CRASH: t processes crash at step 0 (their counter entries
//     freeze at 0), rest round-robin. Quantiles <= t trust the dead:
//     they stabilize on the fully-crashed rank-0 set.
//   scenario ROTISSERIE: t+1-k processes crash at step 0 and the live
//     processes rotate solo in growing bursts: each live k-set has
//     exactly t+1 freezable entries, so quantiles >= t+2 never settle.
// The (quantile, scenario) grid shards across the persistent
// ExperimentRunner pool (--threads / --cells). The bench exits non-zero
// when the paper's quantile is broken or any other quantile works.
#include <iostream>

#include "src/core/runner.h"
#include "src/core/sweep_cli.h"
#include "src/fd/kantiomega.h"
#include "src/fd/property.h"
#include "src/sched/generators.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"
#include "src/util/table.h"

namespace {

using namespace setlib;

struct Outcome {
  bool property = false;
  bool stabilized = false;
  std::string winnerset;
  std::int64_t changes = 0;
};

Outcome run_scenario(int n, int k, int t, int quantile, bool rotisserie) {
  shm::SimMemory mem;
  shm::Simulator sim(mem, n);
  const int gap = rotisserie ? t + 1 - k : t;
  const ProcSet crashed = rotisserie ? ProcSet::range(n - gap, n)
                                     : ProcSet::range(0, t);
  const ProcSet correct = crashed.complement(n);
  if (!crashed.empty()) {
    sim.use_crash_plan(sched::CrashPlan::at(n, crashed, 0));
  }
  fd::KAntiOmega detector(mem,
                          fd::KAntiOmega::Params{n, k, t, 1, quantile});
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(detector.run(p), "fd");
  }
  if (rotisserie) {
    sched::RotatingStarverGenerator gen(n, correct, ProcSet(), 600);
    sim.run(gen, 1'400'000);
  } else {
    sched::RoundRobinGenerator gen(n);
    sim.run_until(gen, 900'000,
                  [&] { return detector.stabilized(correct, 8); });
  }
  const auto check = fd::check_kantiomega(detector, correct, 6);
  std::int64_t changes = 0;
  for (Pid p : correct.to_vector()) {
    changes += detector.view(p).winnerset_changes;
  }
  return {check.abstract_ok, check.stabilized,
          check.stabilized ? check.winnerset.to_string() : "-", changes};
}

// Returns the number of rows that contradict the tightness claim.
int print_ablation(int n, int k, int t, core::ExperimentRunner& runner,
                   core::JsonSink& json) {
  // Grid: one sweep item per quantile (1..n), each running both the
  // CRASH and ROTISSERIE scenarios. Sharding at quantile granularity
  // keeps every table row whole — a row's scenario pair is never
  // split across shards, so the union of shard outputs is exactly the
  // unsharded table.
  struct PairOutcome {
    Outcome crash;
    Outcome rotisserie;
  };
  const std::size_t quantiles = static_cast<std::size_t>(n);
  const std::size_t first = runner.shard_range(quantiles).first;
  core::WallTimer timer;
  const auto outcomes = runner.map<PairOutcome>(
      quantiles, [&](std::size_t idx) {
        const int quantile = static_cast<int>(idx) + 1;
        return PairOutcome{run_scenario(n, k, t, quantile, false),
                           run_scenario(n, k, t, quantile, true)};
      });
  const double wall = timer.seconds();

  TextTable table({"quantile", "CRASH: property", "CRASH: winnerset",
                   "ROTISSERIE: property", "ROTISSERIE: ws changes",
                   "verdict"});
  int contradictions = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const int quantile = static_cast<int>(first + i) + 1;
    const Outcome& crash = outcomes[i].crash;
    const Outcome& rot = outcomes[i].rotisserie;
    const bool both = crash.property && rot.property;
    std::string label = std::to_string(quantile);
    if (quantile == t + 1) label += " (paper)";
    if (both != (quantile == t + 1)) ++contradictions;
    table.row()
        .cell(label)
        .cell(crash.property ? "ok" : "FAIL")
        .cell(crash.winnerset)
        .cell(rot.property ? "ok" : "FAIL")
        .cell(rot.changes)
        .cell(both ? "works" : "broken");
  }
  std::cout << "EXP-ABL: accusation quantile ablation, n=" << n
            << " k=" << k << " t=" << t
            << " (paper uses the (t+1)-st smallest = " << t + 1 << ")\n"
            << table.render() << "\n";
  std::string section = "ablation_n" + std::to_string(n) + "k" +
                        std::to_string(k) + "t" + std::to_string(t);
  json.section(section, outcomes.size() * 2, wall);
  return contradictions;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      core::parse_runner_options(argc, argv, "ablation_quantile");
  core::ExperimentRunner runner(options);
  core::JsonSink json = runner.json_sink();
  const int contradictions = print_ablation(5, 2, 2, runner, json) +
                             print_ablation(6, 2, 3, runner, json);
  json.write_if_requested();
  return contradictions == 0 ? 0 : 1;
}
