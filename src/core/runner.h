// The unified experiment surface: one session-style object that owns
// the worker pool, the cell space, and the result pipeline.
//
// ExperimentRunner holds a persistent runtime::WorkerPool that is
// reused across every sweep section of a binary (worker threads spawn
// once, at construction). run_section() is the one ordered section
// stream: it runs a shard's cells on the pool and streams per-cell
// RunReports into ReportSinks, in cell order. run() feeds it a
// SweepGrid, and ServiceHarness feeds it serving batches. map() is
// the typed convenience for loops that collect results.
//
// Sharding: RunnerOptions::shard = {lo, hi, span} restricts every cell
// space to its [lo, hi) range of a span-wide virtual space — cell
// configs are pure functions of the global index, so the union of the
// runs of a tiling is bit-identical to the unsharded run (modulo
// wall-clock fields). `--cells=LO..HI[/SPAN]` on any bench falls out
// of this.
#ifndef SETLIB_CORE_RUNNER_H
#define SETLIB_CORE_RUNNER_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/report.h"
#include "src/core/sweep.h"
#include "src/runtime/pool.h"
#include "src/util/arena.h"

namespace setlib::core {

struct RunnerOptions {
  std::string name;       // experiment name (JSON default path stem)
  int threads = 1;        // pool width; 0 = hardware concurrency
  int repeat = 1;         // repeat factor benches feed into grids
  ShardSpec shard;        // [lo, hi) range of every cell space
  bool json = false;
  std::string json_path;  // defaults to BENCH_<name>.json
};

/// Wall-clock stopwatch for sweep sections.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    const std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - start_;
    return d.count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerOptions options = {});

  const RunnerOptions& options() const noexcept { return options_; }

  /// The persistent pool — one set of worker threads for the runner's
  /// whole lifetime, reused by every run_section()/map() call.
  runtime::WorkerPool& pool() noexcept { return pool_; }

  /// The calling thread's per-worker-slot arena. Inside a
  /// run_section()/map() callback each participating thread gets its
  /// own arena (indexed by the pool's worker slot), so callbacks may
  /// use it without locking. run_section() resets the arena before
  /// each cell — the determinism contract in src/util/arena.h makes
  /// the per-cell counter deltas independent of thread count and cell
  /// order.
  util::ArenaAllocator& worker_arena() noexcept {
    return *arenas_[pool_.current_slot()];
  }

  /// A JsonSink wired to this runner's options (name, path, shard).
  JsonSink json_sink() const;

  /// This runner's half-open slice of a flat index space [0, total).
  std::pair<std::size_t, std::size_t> shard_range(
      std::size_t total) const {
    return options_.shard.range(total);
  }

  /// Materializes the cell at a global index; called on the
  /// submitting thread, in index order.
  using CellMaker = std::function<SweepCell(std::size_t)>;
  /// Runs one materialized cell on the worker's arena; called on pool
  /// workers, so it must be safe to run concurrently.
  using CellRunner =
      std::function<RunReport(const SweepCell&, util::ArenaAllocator&)>;

  /// The one ordered section stream behind every section of
  /// RunReports: slices [0, total) to this shard, materializes the
  /// slice's cells, runs each on the pool with its worker's arena
  /// reset and its own wall timer, then streams (cell, report,
  /// seconds) to every sink in cell order. A throwing cell closes the
  /// section empty (no rows from a failed section) on every sink
  /// before the exception propagates. `repeats` is the section's
  /// repeat factor (SectionStats::repeats).
  SectionStats run_section(const std::string& name, std::size_t total,
                           int repeats,
                           const std::vector<ReportSink*>& sinks,
                           const CellMaker& make_cell,
                           const CellRunner& run_cell);

  /// Grid entry point: run_section over the grid's cells, each run
  /// through run_agreement.
  SectionStats run(const SweepGrid& grid, const std::string& name,
                   const std::vector<ReportSink*>& sinks = {});

  /// Generic map over this shard of [0, n): out[i] holds the result
  /// of global index shard_range(n).first + i, in index order — so
  /// concatenating the shards' vectors reproduces the unsharded map.
  template <typename T>
  std::vector<T> map(std::size_t n,
                     const std::function<T(std::size_t)>& fn) {
    const auto [begin, end] = shard_range(n);
    std::vector<T> out(end - begin);
    if (!out.empty()) {
      pool_.for_each(out.size(),
                     [&](std::size_t i) { out[i] = fn(begin + i); });
    }
    return out;
  }

 private:
  RunnerOptions options_;
  runtime::WorkerPool pool_;
  // One arena per pool worker slot (slot 0 doubles as the submitting
  // thread). unique_ptrs: arenas are non-movable and the vector is
  // sized once at construction.
  std::vector<std::unique_ptr<util::ArenaAllocator>> arenas_;
};

}  // namespace setlib::core

#endif  // SETLIB_CORE_RUNNER_H
