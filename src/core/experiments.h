// Shared experiment drivers: every bench binary and several examples
// print rows produced here, so the paper-artifact reproductions have a
// single implementation.
#ifndef SETLIB_CORE_EXPERIMENTS_H
#define SETLIB_CORE_EXPERIMENTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/runner.h"
#include "src/core/spec.h"
#include "src/sched/analyzer.h"
#include "src/util/procset.h"

namespace setlib::core {

// ---------------------------------------------------------------------
// EXP-F1: Figure 1. Per growing prefix of S = [(p1 q)^i (p2 q)^i], the
// minimal timeliness bounds of {p1} vs {q}, {p2} vs {q}, {p1,p2} vs {q}.
// The paper's claim: the first two diverge, the third is constant 2.
struct Figure1Row {
  std::int64_t phase = 0;       // i
  std::int64_t prefix_len = 0;  // steps through phase i
  std::int64_t bound_p1 = 0;
  std::int64_t bound_p2 = 0;
  std::int64_t bound_union = 0;
};

/// Rows for phases 1..max_phase, computed by one incremental
/// sched::BoundTracker pass per candidate pair (O(total steps) for the
/// whole series) and sliced to the runner's shard (results are
/// thread-count independent; each row carries its own phase label).
std::vector<Figure1Row> figure1_rows(std::int64_t max_phase,
                                     ExperimentRunner& runner);
/// Serial, unsharded convenience overload.
std::vector<Figure1Row> figure1_rows(std::int64_t max_phase);

// ---------------------------------------------------------------------
// EXP-SCAN: large-n system membership via the batched pair scan. One
// schedule, all C(n,i) x C(n,j) pairs: the sched::RankedPairScan
// P-rank space is chunked and driven through the runner's pool (and
// shard), so an n = 24 membership census parallelizes without losing
// the bit-identical-at-any-thread-count contract.
struct PairScanConfig {
  int n = 24;
  int i = 2;                         // |P|
  int j = 23;                        // |Q|
  std::int64_t len = 40'000;         // schedule prefix length
  std::uint64_t seed = 11;
  std::int64_t bound_cap = 3;        // membership cap for the census
  /// Schedule family: an enforced witness (range(0,i) timely w.r.t.
  /// range(0,j) at `enforced_bound`) over uniform noise, or — with
  /// enforced_bound = 0 — a rotating i-subset starver, which keeps
  /// every i-set starved for growing stretches (no witness expected).
  /// The starver family requires i < n (proper subsets rotate).
  std::int64_t enforced_bound = 3;
};

struct PairScanResult {
  std::int64_t pairs = 0;    // (P, Q) pairs scanned on this shard
  std::int64_t members = 0;  // pairs with bound <= bound_cap
  bool found = false;        // some member exists on this shard
  sched::TimelyPair first;   // earliest member in rank order, if found
};

/// Runs the census through the runner: the P-rank space is split into
/// fixed-size chunks (independent of thread count), and the per-chunk
/// counts fold in rank order. Shard unions sum to the unsharded census.
/// The scan overlaps the schedule's packing: the submitting thread
/// packs the first pull block (PackedSchedule::kPullWords words, the
/// horizon), then one pool job packs the rest on its index 0 while
/// every other index scans one of this shard's chunks as far as the
/// horizon. A second pool pass, skipped when nothing survived,
/// finishes the pairs still unpruned at the horizon, over the chunk
/// range that holds them.
PairScanResult ranked_pair_scan(const PairScanConfig& cfg,
                                ExperimentRunner& runner);

// ---------------------------------------------------------------------
// EXP-F2: Figure 2 detector convergence under the friendly family.
struct DetectorRunResult {
  bool stabilized = false;
  bool property_ok = false;  // stabilized + winnerset has a correct proc
  ProcSet winnerset;
  std::int64_t steps = 0;            // total schedule steps executed
  std::int64_t max_iterations = 0;   // detector loop iterations (max proc)
  std::int64_t winnerset_changes = 0;
  std::int64_t ops_per_iteration = 0;  // cost model: register ops/loop
};

struct DetectorRunConfig {
  int n = 4;
  int k = 1;
  int t = 1;
  std::uint64_t seed = 1;
  std::int64_t bound = 3;            // enforced (P, Q) bound
  std::int64_t max_steps = 400'000;
  int crash_count = 0;               // crash the last `crash_count` pids
  std::int64_t crash_step = 0;
  /// Scheduling weight of the timely set's members relative to 1.0 for
  /// everyone else. With a small weight the witness processes step only
  /// when the enforcer injects them — i.e. once per `bound` observer
  /// steps — so the schedule's synchrony quality is exactly the bound,
  /// and detector convergence cost becomes a function of it (the
  /// EXP-F2b sensitivity series).
  double timely_weight = 1.0;
};

DetectorRunResult run_detector_convergence(const DetectorRunConfig& cfg);

// ---------------------------------------------------------------------
// EXP-T27: the solvability matrix. For fixed (t, k, n) with k <= t,
// sweep all 1 <= i <= j <= n. Each cell runs an adversary that is
// provably *in* S^i_{j,n} (witness cross-checked with the analyzer):
//   - i > k:               rotating k-subset starvation (no crashes);
//   - i <= k, j-i <= t:    rotisserie with j-i initial crashes;
//   - i <= k, j-i >  t:    friendly enforced-random (always solvable).
// The observable frontier is the detector: the abstract t-resilient
// k-anti-Omega property (a correct process everyone eventually trusts)
// holds on the adversarial schedule iff Theorem 27 says the cell is
// solvable. The solver outcome is reported alongside; on unsolvable
// cells an oblivious schedule may still let the solver decide (the
// impossibility quantifies over adaptive adversaries — see
// EXPERIMENTS.md), which does not count against the frontier check.
// A safety violation (more than k values, or an invalid one) does, in
// every cell.
struct MatrixCell {
  int i = 0;
  int j = 0;
  bool predicted_solvable = false;
  bool detector_property = false;  // abstract k-anti-Omega held
  bool solver_success = false;     // full stack decided correctly
  bool matches = false;            // frontier check (see above)
  std::string family;
  std::string detail;
};

/// Every cell runs with seed 1 and stabilization window 4 (constants
/// in experiments.cpp), and RunConfig's default friendly bound (3) and
/// rotisserie growth (512).
struct MatrixConfig {
  AgreementSpec spec;
  std::int64_t max_steps = 1'200'000;
};

/// Runs the (i, j) cells through the runner (its pool width and shard
/// apply; cell results are identical at any thread count and the
/// shard union equals the unsharded matrix). `extra_sinks` stream
/// the raw per-cell reports — e.g. a JsonSink recording the section
/// named "matrix_<spec>".
std::vector<MatrixCell> thm27_matrix(
    const MatrixConfig& cfg, ExperimentRunner& runner,
    const std::vector<ReportSink*>& extra_sinks = {});
/// Serial, unsharded convenience overload.
std::vector<MatrixCell> thm27_matrix(const MatrixConfig& cfg);

/// Render any matrix as the frontier table the bench prints.
std::string render_matrix(const AgreementSpec& spec,
                          const std::vector<MatrixCell>& cells);

}  // namespace setlib::core

#endif  // SETLIB_CORE_EXPERIMENTS_H
