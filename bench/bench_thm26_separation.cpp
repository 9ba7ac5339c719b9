// EXP-T26 — Theorem 26: (k,k,n)-agreement is solvable in S^k_{n,n} but
// not in S^{k+1}_{n,n}.
//
// Part 1 (possibility) is executed directly. Part 2 (impossibility) is
// proved in the paper by BG simulation; we verify the construction's
// two load-bearing claims on real executions:
//   (i)  a crashed simulator blocks at most one simulated thread
//        (so <= m-1 = k simulated crashes), and
//   (ii) the simulated schedule keeps every (k+1)-set timely w.r.t.
//        all n simulated processes — i.e. it lies in S^{k+1}_{n,n} —
//        while no k-set stays timely (measured bounds).
// Plus the direct evidence: the k-subset starver (a schedule of
// S^{k+1}_{n,n}) defeats the Figure 2 detector's k-anti-Omega property.
// Each series' rows are independent runs sharded across the persistent
// ExperimentRunner pool (--threads / --cells). The bench exits non-zero
// when a part-1 run fails or a part-2b detector keeps its property.
#include <iostream>
#include <limits>
#include <memory>

#include "src/bg/bg_sim.h"
#include "src/bg/threads.h"
#include "src/core/engine.h"
#include "src/core/runner.h"
#include "src/core/solvability.h"
#include "src/core/sweep_cli.h"
#include "src/sched/analyzer.h"
#include "src/sched/generators.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"
#include "src/util/table.h"

namespace {

using namespace setlib;

// Each part returns the number of its rows that contradict Theorem 26.
int print_part1_possibility(core::ExperimentRunner& runner,
                            core::JsonSink& json) {
  struct Row {
    int k, n;
  };
  const Row rows[] = {{1, 4}, {2, 5}, {3, 6}};
  const std::size_t count = std::size(rows);
  const std::size_t first = runner.shard_range(count).first;

  core::WallTimer timer;
  const auto reports = runner.map<core::RunReport>(
      count, [&](std::size_t idx) {
        const Row& row = rows[idx];
        core::RunConfig cfg;
        cfg.spec = {row.k, row.k, row.n};
        cfg.system = {row.k, row.n, row.n};  // S^k_{n,n}
        cfg.seed = 11;
        return core::run_agreement(cfg);
      });
  const double wall = timer.seconds();

  TextTable table({"(k,k,n)", "system", "success", "distinct", "steps"});
  int failures = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (!reports[i].success) ++failures;
    const Row& row = rows[first + i];
    const core::AgreementSpec spec{row.k, row.k, row.n};
    const core::SystemSpec system{row.k, row.n, row.n};
    table.row()
        .cell(spec.to_string())
        .cell(system.to_string())
        .cell(reports[i].success ? "yes" : "NO")
        .cell(reports[i].distinct_decisions)
        .cell(reports[i].steps_executed);
  }
  std::cout << "EXP-T26 part 1: (k,k,n)-agreement solvable in S^k_{n,n}\n"
            << table.render() << "\n";
  json.section("possibility", reports.size(), wall);
  return failures;
}

void print_bg_properties(core::ExperimentRunner& runner,
                         core::JsonSink& json) {
  struct Row {
    int m, n;
    bool crash;
  };
  const Row rows[] = {{2, 4, false}, {3, 5, false}, {3, 5, true},
                      {4, 6, true}};
  const std::size_t count = std::size(rows);
  const std::size_t first = runner.shard_range(count).first;

  struct BgFacts {
    std::size_t blocked = 0;
    std::int64_t schedule_steps = 0;
    std::int64_t worst_kp1 = 0;
    std::int64_t best_k = 0;
  };

  core::WallTimer timer;
  const auto facts = runner.map<BgFacts>(
      count, [&](std::size_t idx) {
        const Row& row = rows[idx];
        shm::SimMemory mem;
        bg::BGSimulation sim_obj(
            mem, bg::BGSimulation::Params{row.m, row.n, 48},
            [](int u) { return std::make_unique<bg::ForeverThread>(u); });
        shm::Simulator sim(mem, row.m);
        for (Pid i = 0; i < row.m; ++i) {
          sim.process(i).add_task(sim_obj.run(i), "bg");
        }
        if (row.crash) {
          sim.use_crash_plan(
              sched::CrashPlan::at(row.m, ProcSet::of(row.m - 1), 57));
        }
        sched::RoundRobinGenerator gen(row.m);
        sim.run(gen, 2'000'000);

        const sched::Schedule& simulated = sim_obj.simulated_schedule();
        const int k = row.m - 1;
        BgFacts out;
        out.blocked = sim_obj.blocked_threads().size();
        out.schedule_steps = simulated.size();
        for (const ProcSet s : k_subsets(row.n, k + 1)) {
          out.worst_kp1 = std::max(
              out.worst_kp1,
              sched::min_timeliness_bound(simulated, s,
                                          ProcSet::universe(row.n)));
        }
        out.best_k = std::numeric_limits<std::int64_t>::max();
        for (const ProcSet s : k_subsets(row.n, k)) {
          out.best_k = std::min(
              out.best_k,
              sched::min_timeliness_bound(simulated, s,
                                          ProcSet::universe(row.n)));
        }
        return out;
      });
  const double wall = timer.seconds();

  TextTable table({"m (simulators)", "n (threads)", "crashed sims",
                   "blocked threads", "sim schedule steps",
                   "max bound (k+1)-sets vs all",
                   "min bound k-sets vs all"});
  for (std::size_t i = 0; i < facts.size(); ++i) {
    const Row& row = rows[first + i];
    table.row()
        .cell(row.m)
        .cell(row.n)
        .cell(row.crash ? 1 : 0)
        .cell(facts[i].blocked)
        .cell(facts[i].schedule_steps)
        .cell(facts[i].worst_kp1)
        .cell(facts[i].best_k);
  }
  std::cout
      << "EXP-T26 part 2a: BG simulation schedule-mapping properties\n"
      << "(property (i): blocked <= crashed sims; property (ii): every\n"
      << " (k+1)-set bound small = simulated schedule in S^{k+1}_{n,n})\n"
      << table.render() << "\n";
  json.section("bg_properties", facts.size(), wall);
}

int print_detector_defeat(core::ExperimentRunner& runner,
                          core::JsonSink& json) {
  struct Row {
    int k, n;
  };
  const Row rows[] = {{1, 4}, {2, 5}, {3, 6}};
  const std::size_t count = std::size(rows);
  const std::size_t first = runner.shard_range(count).first;

  core::WallTimer timer;
  const auto reports = runner.map<core::RunReport>(
      count, [&](std::size_t idx) {
        const Row& row = rows[idx];
        core::RunConfig cfg;
        cfg.spec = {row.k, row.k, row.n};
        cfg.system = {row.k + 1, row.n, row.n};
        cfg.family = core::ScheduleFamily::kKSubsetStarver;
        cfg.run_full_budget = true;
        cfg.max_steps = 1'200'000;
        return core::run_agreement(cfg);
      });
  const double wall = timer.seconds();

  TextTable table({"(k,k,n) detector", "family", "abstract property",
                   "winnerset changes"});
  int holds = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (reports[i].detector.abstract_ok) ++holds;
    const Row& row = rows[first + i];
    const core::AgreementSpec spec{row.k, row.k, row.n};
    table.row()
        .cell(spec.to_string())
        .cell("k-subset starver in S^{k+1}_{n,n}")
        .cell(reports[i].detector.abstract_ok ? "HOLDS (unexpected)"
                                              : "defeated")
        .cell(reports[i].detector.total_winnerset_changes);
  }
  std::cout << "EXP-T26 part 2b: a S^{k+1}_{n,n} schedule defeats the "
               "k-anti-Omega detector\n"
            << table.render() << "\n";
  json.section("detector_defeat", reports.size(), wall);
  return holds;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      core::parse_cli_or_exit(argc, argv, "thm26_separation");
  core::ExperimentRunner runner(options);
  core::JsonSink json = runner.json_sink();
  int contradictions = print_part1_possibility(runner, json);
  print_bg_properties(runner, json);
  contradictions += print_detector_defeat(runner, json);
  if (!json.write_if_requested()) return 1;
  return contradictions == 0 ? 0 : 1;
}
