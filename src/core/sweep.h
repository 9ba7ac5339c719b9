// Experiment grids as flat, indexable cell spaces.
//
// SweepGrid enumerates the cartesian product of the experiment axes —
// agreement specs, a system axis, schedule families, timeliness bounds,
// and repeat indices. Execution lives in core::ExperimentRunner
// (src/core/runner.h), which spreads the flat index space across a
// persistent runtime::WorkerPool and streams per-cell RunReports
// into ReportSinks (src/core/report.h).
//
// Determinism contract: a cell's RunConfig — including its seed, which
// is derived from (base seed, flat cell index) through splitmix64 — is
// a pure function of the grid, never of the worker, shard, or thread
// count that happens to run it. Aggregation walks cells in index
// order, so results are bit-identical at any thread count and the
// concatenation of shards reproduces the unsharded run.
#ifndef SETLIB_CORE_SWEEP_H
#define SETLIB_CORE_SWEEP_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/spec.h"

namespace setlib::core {

/// Deterministic per-cell seed derivation (splitmix64 over the base
/// seed advanced by the flat cell index).
std::uint64_t derive_cell_seed(std::uint64_t base_seed,
                               std::uint64_t cell_index) noexcept;

/// Short display name of a schedule family ("friendly", "rotisserie",
/// "k-subset starver", "bursty", ...).
const char* family_name(ScheduleFamily family) noexcept;

/// The randomized adversary families (src/sched/families.h) as grid
/// axis values, in registry order — the list benches iterate to sweep
/// the family axis.
const std::vector<ScheduleFamily>& randomized_families();

/// The execution-reactive adversaries (src/sched/reactive.h) as grid
/// axis values, in registry order.
const std::vector<ScheduleFamily>& reactive_families();

/// How the grid derives the system S^i_{j,n} for each spec.
enum class SystemAxis {
  /// Theorem 24's matching system S^k_{t+1,n} — one system per spec.
  kMatching,
  /// Every 1 <= i <= j <= n — the Theorem 27 matrix sweep.
  kFullMatrix,
};

/// One materialized grid cell: a ready-to-run RunConfig plus its
/// coordinates in the grid.
struct SweepCell {
  std::size_t index = 0;  // flat index in grid order
  int repeat = 0;         // innermost axis coordinate
  RunConfig config;       // seed already derived from (base_seed, index)
};

/// Cartesian product over the experiment axes. Axes left empty fall
/// back to singletons taken from the prototype RunConfig; a grid with
/// no specs is the legal empty grid (size() == 0).
///
/// The (spec, system) points are materialized lazily and memoized, so
/// repeated cell() calls cost O(1) lookups instead of re-enumerating
/// the axis product — required for 10^5-cell grids. The cache makes
/// cell()/size() non-reentrant with the builder methods; materialize
/// cells on one thread (the ExperimentRunner does) before fanning out.
class SweepGrid {
 public:
  SweepGrid& add_spec(const AgreementSpec& spec);
  SweepGrid& add_family(ScheduleFamily family);
  SweepGrid& add_bound(std::int64_t timeliness_bound);
  SweepGrid& system_axis(SystemAxis axis);
  /// Number of seeds per point; cell seeds stay index-derived.
  SweepGrid& repeats(int repeats);
  /// The repeat factor (innermost axis width): cell index / repeats()
  /// is the cell's grid-point id — the grouping the per-point
  /// multi-seed statistics are computed over.
  int repeats() const noexcept { return repeats_; }
  SweepGrid& base_seed(std::uint64_t seed);
  /// Template for every cell's RunConfig (max_steps, windows, ...).
  SweepGrid& prototype(const RunConfig& config);
  /// Last-mile hook applied to each materialized cell — the escape
  /// hatch for per-cell policy (e.g. the Theorem 27 family choice as a
  /// function of (i, j)). Must be a pure function of the cell.
  SweepGrid& per_cell(std::function<void(SweepCell&)> hook);

  std::size_t size() const;
  /// Materializes the cell at `index` (grid order: spec/system point,
  /// then family, then bound, then repeat innermost).
  SweepCell cell(std::size_t index) const;

 private:
  struct Point {
    AgreementSpec spec;
    SystemSpec system;
  };
  const std::vector<Point>& points() const;  // memoized

  std::vector<AgreementSpec> specs_;
  std::vector<ScheduleFamily> families_;
  std::vector<std::int64_t> bounds_;
  SystemAxis axis_ = SystemAxis::kMatching;
  int repeats_ = 1;
  std::uint64_t base_seed_ = 1;
  RunConfig prototype_;
  std::function<void(SweepCell&)> per_cell_;

  mutable std::vector<Point> points_cache_;
  mutable bool points_valid_ = false;
};

}  // namespace setlib::core

#endif  // SETLIB_CORE_SWEEP_H
