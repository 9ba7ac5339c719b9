#include "src/core/experiments.h"

#include <algorithm>
#include <functional>
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

namespace {

// run_detector_convergence: a stabilized winnerset must hold this many
// detector iterations.
constexpr std::int64_t kDetectorStabilizationWindow = 6;

// thm27_matrix: every cell's seed and detector stabilization window.
constexpr std::uint64_t kMatrixSeed = 1;
constexpr std::int64_t kMatrixStabilizationWindow = 4;

}  // namespace

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
  // Pack-once, straight from the generator (no Schedule is
  // materialized); every scan borrows the words read-only. The
  // submitting thread packs the first pull block, the census horizon,
  // and the first pool job packs the rest while the chunks scan their
  // pairs as far as the horizon.
  sched::PackedSchedule packed(cfg.n, cfg.len);
  const std::int64_t horizon =
      std::min(sched::PackedSchedule::kPullWords, packed.words());
  packed.pack(*gen, horizon);
  const std::int64_t p_count = SubsetRanker(cfg.n, cfg.i).count();

  // Fixed-size P-rank chunks: the chunk space (not the thread count)
  // defines the work decomposition, so counts are bit-identical at any
  // pool width and shards slice the chunk space contiguously. Each
  // chunk scans through an arena-backed RankedPairScan on its worker's
  // arena — the scan scratch never hits the heap, and the arena use is
  // race-free because a worker slot runs one index at a time.
  constexpr std::int64_t kChunk = 8;
  const auto [first_chunk, end_chunk] = runner.shard_range(
      static_cast<std::size_t>((p_count + kChunk - 1) / kChunk));
  struct ChunkScan {
    sched::RankedPairScan::MemberCount count;
    std::vector<sched::RankedPairScan::Survivor> survivors;
  };
  std::vector<ChunkScan> parts(end_chunk - first_chunk);
  // One job: index 0 packs words [horizon, words()), which no scan of
  // this job reads, and index c + 1 scans chunk c up to the horizon.
  // The pool's completion barrier orders the pack before the finish.
  const auto pack_or_scan = [&](std::size_t idx) {
    if (idx == 0) {
      packed.pack(*gen, packed.words());
      return;
    }
    ChunkScan& part = parts[idx - 1];
    const auto begin =
        static_cast<std::int64_t>(first_chunk + idx - 1) * kChunk;
    const std::int64_t end = std::min(begin + kChunk, p_count);
    const sched::RankedPairScan scan(packed, cfg.i, cfg.j,
                                     &runner.worker_arena(), horizon);
    part.count =
        scan.count_members(cfg.bound_cap, begin, end, &part.survivors);
  };
  // std::ref: the pool's std::function holds a pointer to the closure
  // instead of copying it to the heap.
  if (!parts.empty()) {
    runner.pool().for_each(parts.size() + 1, std::ref(pack_or_scan));
  }
  // The pairs still unpruned at the horizon finish on the whole
  // prefix, over the chunk range that holds them, so a census where
  // many pairs survive (every P = Q pair when i == j) stays parallel.
  std::size_t lo = parts.size();
  std::size_t hi = 0;
  for (std::size_t c = 0; c < parts.size(); ++c) {
    if (parts[c].survivors.empty()) continue;
    lo = std::min(lo, c);
    hi = c + 1;
  }
  const auto finish = [&](std::size_t idx) {
    ChunkScan& part = parts[lo + idx];
    const sched::RankedPairScan scan(packed, cfg.i, cfg.j,
                                     &runner.worker_arena());
    const sched::RankedPairScan::MemberCount done =
        scan.finish(cfg.bound_cap, part.survivors);
    part.count.members += done.members;
    if (!part.count.first) part.count.first = done.first;
  };
  if (lo < hi) runner.pool().for_each(hi - lo, std::ref(finish));

  PairScanResult out;
  for (const ChunkScan& part : parts) {  // rank order: first = earliest
    out.pairs += part.count.pairs;
    out.members += part.count.members;
    if (!out.found && part.count.first) {
      out.found = true;
      out.first = *part.count.first;
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
    return detector.stabilized(correct, kDetectorStabilizationWindow);
  };
  const std::int64_t steps = sim.run_until(gen, cfg.max_steps, stop);

  DetectorRunResult out;
  out.steps = steps;
  const auto prop = fd::check_kantiomega(detector, correct,
                                         kDetectorStabilizationWindow);
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
  proto.stabilization_window = kMatrixStabilizationWindow;
  proto.run_full_budget = true;

  SweepGrid grid;
  grid.add_spec(cfg.spec)
      .system_axis(SystemAxis::kFullMatrix)
      .prototype(proto)
      .per_cell([&cfg](SweepCell& cell) {
        // The matrix keeps one seed across cells (the classic EXP-T27
        // semantics); the adversarial family is a function of where
        // (i, j) sits relative to the Theorem 27 frontier.
        cell.config.seed = kMatrixSeed;
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
    // Frontier check: every cell keeps agreement and validity (safety
    // holds on every schedule). On solvable cells the detector property
    // and the solver must both come through; on unsolvable cells the
    // adversary must defeat the detector property (a lucky solver
    // decision on an oblivious schedule is possible and allowed).
    cell.matches = report.agreement_ok && report.validity_ok &&
                   (cell.predicted_solvable
                        ? (cell.detector_property && cell.solver_success)
                        : !cell.detector_property);
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
