#include "src/core/experiments.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "src/core/solvability.h"
#include "src/core/sweep.h"
#include "src/fd/kantiomega.h"
#include "src/fd/property.h"
#include "src/sched/analyzer.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"
#include "src/util/assert.h"
#include "src/util/table.h"

namespace setlib::core {

std::vector<Figure1Row> figure1_rows(std::int64_t max_phase,
                                     ExperimentRunner& runner) {
  SETLIB_EXPECTS(max_phase >= 1);
  const int n = 3;
  const Pid p1 = 0, p2 = 1, q = 2;
  sched::Figure1Generator gen(n, p1, p2, q);
  const std::int64_t total =
      sched::Figure1Generator::steps_through_phase(max_phase);
  const sched::Schedule s = sched::generate(gen, total);

  // One incremental pass per candidate pair: each BoundTracker extends
  // to the next phase boundary in O(Δ), so the whole growing-prefix
  // series costs O(total) instead of the O(total^2) of rescanning
  // every cut. Rows are pure functions of the phase index, so slicing
  // the series preserves the runner's shard-union invariant.
  sched::BoundTracker tracker_p1(ProcSet::of(p1), ProcSet::of(q));
  sched::BoundTracker tracker_p2(ProcSet::of(p2), ProcSet::of(q));
  sched::BoundTracker tracker_union(ProcSet::of({p1, p2}), ProcSet::of(q));
  std::vector<Figure1Row> all;
  all.reserve(static_cast<std::size_t>(max_phase));
  for (std::int64_t phase = 1; phase <= max_phase; ++phase) {
    const std::int64_t cut =
        sched::Figure1Generator::steps_through_phase(phase);
    tracker_p1.extend(s, cut);
    tracker_p2.extend(s, cut);
    tracker_union.extend(s, cut);
    Figure1Row row;
    row.phase = phase;
    row.prefix_len = cut;
    row.bound_p1 = tracker_p1.bound();
    row.bound_p2 = tracker_p2.bound();
    row.bound_union = tracker_union.bound();
    all.push_back(row);
  }
  const auto [begin, end] =
      runner.shard_range(static_cast<std::size_t>(max_phase));
  return std::vector<Figure1Row>(
      all.begin() + static_cast<std::ptrdiff_t>(begin),
      all.begin() + static_cast<std::ptrdiff_t>(end));
}

std::vector<Figure1Row> figure1_rows(std::int64_t max_phase) {
  ExperimentRunner serial;
  return figure1_rows(max_phase, serial);
}

PairScanResult ranked_pair_scan(const PairScanConfig& cfg,
                                ExperimentRunner& runner) {
  SETLIB_EXPECTS(2 <= cfg.n && cfg.n <= kMaxProcs);
  SETLIB_EXPECTS(1 <= cfg.i && cfg.i <= cfg.n);
  SETLIB_EXPECTS(1 <= cfg.j && cfg.j <= cfg.n);
  SETLIB_EXPECTS(cfg.len >= 0);
  SETLIB_EXPECTS(cfg.bound_cap >= 1);
  // The starver family rotates proper i-subsets; i == n has nothing
  // to rotate (the universe cannot be starved against itself).
  SETLIB_EXPECTS(cfg.enforced_bound > 0 || cfg.i < cfg.n);

  std::unique_ptr<sched::ScheduleGenerator> gen;
  if (cfg.enforced_bound > 0) {
    gen = sched::EnforcedGenerator::single(
        std::make_unique<sched::UniformRandomGenerator>(cfg.n, cfg.seed),
        sched::TimelinessConstraint(ProcSet::range(0, cfg.i),
                                    ProcSet::range(0, cfg.j),
                                    cfg.enforced_bound));
  } else {
    gen = std::make_unique<sched::KSubsetStarverGenerator>(
        cfg.n, ProcSet::universe(cfg.n), cfg.i, 64);
  }
  // Pack-once: the shared packed prefix is built on the submitting
  // thread, straight from the generator (no Schedule is materialized),
  // and borrowed read-only by every worker's scan.
  const sched::PackedSchedule packed(*gen, cfg.len);
  const std::int64_t p_count = SubsetRanker(cfg.n, cfg.i).count();

  // Fixed-size P-rank chunks: the chunk space (not the thread count)
  // defines the work decomposition, so counts are bit-identical at any
  // pool width and shards slice the chunk space contiguously. Each
  // chunk scans through an arena-backed RankedPairScan on its worker's
  // arena — the scan scratch never hits the heap, and the arena use is
  // race-free because a worker slot runs one chunk at a time.
  constexpr std::int64_t kChunk = 8;
  const std::int64_t chunks = (p_count + kChunk - 1) / kChunk;
  using Chunk = sched::RankedPairScan::MemberCount;
  const std::vector<Chunk> parts = runner.map<Chunk>(
      static_cast<std::size_t>(chunks), [&](std::size_t c) {
        const std::int64_t begin = static_cast<std::int64_t>(c) * kChunk;
        const std::int64_t end = std::min(begin + kChunk, p_count);
        const sched::RankedPairScan scan(packed, cfg.i, cfg.j,
                                         &runner.worker_arena());
        return scan.count_members(cfg.bound_cap, begin, end);
      });

  PairScanResult out;
  for (const Chunk& part : parts) {  // rank order: first = earliest
    out.pairs += part.pairs;
    out.members += part.members;
    if (!out.found && part.first) {
      out.found = true;
      out.first = *part.first;
    }
  }
  return out;
}

DetectorRunResult run_detector_convergence(const DetectorRunConfig& cfg) {
  SETLIB_EXPECTS(cfg.n >= 2);
  SETLIB_EXPECTS(cfg.k >= 1 && cfg.k <= cfg.n - 1);
  SETLIB_EXPECTS(cfg.t >= 1 && cfg.t <= cfg.n - 1);
  SETLIB_EXPECTS(cfg.crash_count >= 0 && cfg.crash_count <= cfg.t);

  const int n = cfg.n;
  sched::CrashPlan plan = sched::CrashPlan::none(n);
  if (cfg.crash_count > 0) {
    plan = sched::CrashPlan::at(n, ProcSet::range(n - cfg.crash_count, n),
                                cfg.crash_step);
  }
  // Witness pair: P = first k pids, Q = first t+1 pids (all alive, since
  // crashes hit the tail and crash_count <= t < t+1 <= n ... Q may
  // include crashed pids when t + 1 > n - crash_count; that only makes
  // the constraint easier, and P stays alive).
  const ProcSet p = ProcSet::range(0, cfg.k);
  const ProcSet q = ProcSet::range(0, std::min(cfg.t + 1, n));
  std::unique_ptr<sched::ScheduleGenerator> base;
  if (cfg.timely_weight == 1.0) {
    base = std::make_unique<sched::UniformRandomGenerator>(n, cfg.seed);
  } else {
    SETLIB_EXPECTS(cfg.timely_weight >= 0.0);
    std::vector<double> weights(static_cast<std::size_t>(n), 1.0);
    for (Pid member : p.to_vector()) {
      weights[static_cast<std::size_t>(member)] = cfg.timely_weight;
    }
    base = std::make_unique<sched::WeightedRandomGenerator>(
        std::move(weights), cfg.seed);
  }
  std::vector<sched::TimelinessConstraint> constraints;
  constraints.emplace_back(p, q, cfg.bound);
  sched::EnforcedGenerator gen(std::move(base), std::move(constraints),
                               plan);

  shm::SimMemory mem;
  shm::Simulator sim(mem, n);
  sim.use_crash_plan(plan);
  fd::KAntiOmega detector(mem,
                          fd::KAntiOmega::Params{n, cfg.k, cfg.t, 1});
  for (Pid pid = 0; pid < n; ++pid) {
    sim.process(pid).add_task(detector.run(pid), "kanti-omega");
  }

  const ProcSet correct = plan.faulty().complement(n);
  auto stop = [&] {
    return detector.stabilized(correct, cfg.stabilization_window);
  };
  const std::int64_t steps = sim.run_until(gen, cfg.max_steps, stop);

  DetectorRunResult out;
  out.steps = steps;
  const auto prop = fd::check_kantiomega(detector, correct,
                                         cfg.stabilization_window);
  out.stabilized = prop.stabilized;
  out.property_ok = prop.ok;
  out.winnerset = prop.winnerset;
  for (Pid pid : correct.to_vector()) {
    const auto& v = detector.view(pid);
    out.max_iterations = std::max(out.max_iterations, v.iterations);
    out.winnerset_changes += v.winnerset_changes;
  }
  // Cost model: per loop iteration, Figure 2 performs |Pi_n^k| * n
  // counter reads + 1 heartbeat write + n heartbeat reads + at most
  // |Pi_n^k| counter writes.
  const std::int64_t sets = detector.ranker().count();
  out.ops_per_iteration = sets * n + 1 + n + sets;
  return out;
}

std::vector<MatrixCell> thm27_matrix(
    const MatrixConfig& cfg, ExperimentRunner& runner,
    const std::vector<ReportSink*>& extra_sinks) {
  cfg.spec.validate();
  SETLIB_EXPECTS(cfg.spec.k <= cfg.spec.t);  // the Theorem 27 regime

  RunConfig proto;
  proto.spec = cfg.spec;
  proto.max_steps = cfg.max_steps;
  proto.rotisserie_growth = cfg.rotisserie_growth;
  proto.timeliness_bound = cfg.friendly_bound;
  proto.stabilization_window = cfg.stabilization_window;
  proto.run_full_budget = true;

  SweepGrid grid;
  grid.add_spec(cfg.spec)
      .system_axis(SystemAxis::kFullMatrix)
      .prototype(proto)
      .per_cell([&cfg](SweepCell& cell) {
        // The matrix keeps one seed across cells (the classic EXP-T27
        // semantics); the adversarial family is a function of where
        // (i, j) sits relative to the Theorem 27 frontier.
        cell.config.seed = cfg.seed;
        const int i = cell.config.system.i;
        const int j = cell.config.system.j;
        if (i > cfg.spec.k) {
          cell.config.family = ScheduleFamily::kKSubsetStarver;
        } else if (j - i <= cfg.spec.t) {
          cell.config.family = ScheduleFamily::kRotisserie;
        } else {
          cell.config.family = ScheduleFamily::kEnforcedRandom;
        }
      });

  CollectSink collected;
  std::vector<ReportSink*> sinks;
  sinks.push_back(&collected);
  sinks.insert(sinks.end(), extra_sinks.begin(), extra_sinks.end());
  runner.run(grid, "matrix_" + cfg.spec.to_string(), sinks);

  std::vector<MatrixCell> cells;
  cells.reserve(collected.cells().size());
  for (std::size_t idx = 0; idx < collected.cells().size(); ++idx) {
    const RunConfig& rc = collected.cells()[idx].config;
    const RunReport& report = collected.reports()[idx];
    MatrixCell cell;
    cell.i = rc.system.i;
    cell.j = rc.system.j;
    cell.predicted_solvable = solvable(cfg.spec, rc.system);
    cell.family = family_name(rc.family);
    cell.detector_property = report.detector.abstract_ok;
    cell.solver_success = report.success;
    // Frontier check: on solvable cells the detector property and
    // the solver must both come through; on unsolvable cells the
    // adversary must defeat the detector property (a lucky solver
    // decision on an oblivious schedule is possible and allowed).
    cell.matches = cell.predicted_solvable
                       ? (cell.detector_property && cell.solver_success)
                       : !cell.detector_property;
    cell.detail = report.detail;
    cells.push_back(cell);
  }
  return cells;
}

std::vector<MatrixCell> thm27_matrix(const MatrixConfig& cfg) {
  ExperimentRunner serial;
  return thm27_matrix(cfg, serial);
}

std::string render_matrix(const AgreementSpec& spec,
                          const std::vector<MatrixCell>& cells) {
  TextTable table({"i", "j", "predicted (Thm 27)", "k-anti-Omega property",
                   "solver", "family", "frontier check"});
  for (const auto& c : cells) {
    table.row()
        .cell(c.i)
        .cell(c.j)
        .cell(c.predicted_solvable ? "solvable" : "unsolvable")
        .cell(c.detector_property ? "holds" : "defeated")
        .cell(c.solver_success ? "decided" : "no decision")
        .cell(c.family)
        .cell(c.matches ? "MATCH" : "MISMATCH");
  }
  std::ostringstream os;
  os << "Theorem 27 frontier for " << spec.to_string()
     << ": solvable iff i <= " << spec.k
     << " and j - i >= " << (spec.t + 1 - spec.k) << "\n"
     << table.render();
  return os.str();
}

}  // namespace setlib::core
