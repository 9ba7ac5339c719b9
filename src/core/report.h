// Report sinks: the result pipeline of the experiment surface.
//
// The ExperimentRunner executes a sweep section and streams its
// per-cell (SweepCell, RunReport, wall seconds) triples — in cell
// order, after the parallel phase has drained — into any number of
// ReportSinks. Sinks replace the ad-hoc per-bench output glue:
//
//   - AggregateSink folds the order-deterministic SweepAggregate
//     (success counts, step/bound summaries).
//   - TableSink renders the success-rate matrix grouped by
//     (spec, family) — the table every sweep bench prints.
//   - CollectSink keeps the raw cells + reports for callers that
//     post-process (the Theorem 27 matrix).
//   - JsonSink accumulates BENCH_<name>.json sections: cell counts,
//     a per-cell row array of the deterministic fields (so shard
//     unions can be diffed cell-for-cell against unsharded runs), the
//     statistics derived from those rows, and a "timing" object per
//     section holding every wall-clock fact.
//
// Because cells stream in cell order within a shard, and shards are
// contiguous ranges of the flat index space, concatenating the sink
// output of a tiling's ranges in order reproduces the unsharded output
// exactly (modulo the "timing" objects).
#ifndef SETLIB_CORE_REPORT_H
#define SETLIB_CORE_REPORT_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/sweep.h"
#include "src/util/json.h"
#include "src/util/stats.h"

namespace setlib::core {

/// A half-open range [lo, hi) of a span-wide virtual cell space: the
/// one partition of every sweep (`--cells=LO..HI[/SPAN]`). The range
/// covers [total*lo/span, total*hi/span) of every real cell space of
/// size total, so ranges can be chosen without knowing any section's
/// cell count — ranges that tile [0, span) tile every section,
/// whatever its size (floor arithmetic maps shared boundaries to
/// shared boundaries), and the union of a tiling's runs is
/// bit-identical to the unsharded run. N equal slices are the N ranges
/// K..K+1/N. The default {0, 1, 1} is the whole, unsharded space.
struct ShardSpec {
  /// Default span of a bare `--cells=LO..HI`; fine enough that uneven
  /// splits stay meaningful far past any real shard count.
  static constexpr std::size_t kDefaultSpan = std::size_t{1} << 20;

  std::size_t lo = 0;
  std::size_t hi = 1;
  std::size_t span = 1;

  /// The one shape rule: 0 <= LO < HI <= SPAN (a range is never empty).
  bool valid() const noexcept { return lo < hi && hi <= span; }
  bool whole() const noexcept { return lo == 0 && hi == span; }
  std::string to_string() const;  // "lo..hi/span"
  /// This shard's slice of [0, total), as {begin, end}.
  std::pair<std::size_t, std::size_t> range(std::size_t total) const;

  /// The one parser of "LO..HI[/SPAN]" (SPAN defaults to kDefaultSpan),
  /// shared by the --cells= flag and the merge's "shard" field: plain
  /// digits only (at most 9 per number — no signs, spaces, or
  /// exponents), and the result must be valid(). nullopt otherwise.
  static std::optional<ShardSpec> parse(std::string_view text);
};

/// Cells per wall second; 0 when no time was measured. The one
/// formula behind every runs_per_second()/"runs_per_sec" fact.
inline double runs_per_wall_second(std::size_t cells,
                                   double wall_seconds) noexcept {
  return wall_seconds > 0.0 ? static_cast<double>(cells) / wall_seconds
                            : 0.0;
}

/// Facts about one executed sweep section (one run_section call).
struct SectionStats {
  std::string name;
  std::size_t grid_cells = 0;  // size of the full (unsharded) space
  std::size_t cells = 0;       // cells actually run (this shard)
  /// The grid's repeat factor (1 for serving sections): global cell
  /// index / repeats is the grid-point id the per-point multi-seed
  /// statistics group by.
  int repeats = 1;
  ShardSpec shard;
  // Wall-clock facts (the only thread-count-dependent fields).
  Summary cell_seconds;  // per-cell wall latency
  double wall_seconds = 0.0;

  double runs_per_second() const noexcept {
    return runs_per_wall_second(cells, wall_seconds);
  }
};

/// Streaming consumer of a sweep section. All hooks default to no-ops;
/// cell() is invoked in cell order after the parallel phase drains.
class ReportSink {
 public:
  virtual ~ReportSink() = default;
  virtual void begin_section(const std::string& name,
                             std::size_t grid_cells,
                             const ShardSpec& shard);
  virtual void cell(const SweepCell& cell, const RunReport& report,
                    double seconds);
  virtual void end_section(const SectionStats& stats);
};

/// Order-deterministic fold of the per-cell reports.
struct SweepAggregate {
  std::size_t cells = 0;
  std::size_t successes = 0;
  std::size_t detector_ok = 0;  // abstract k-anti-Omega held
  Summary steps;                // steps_executed per cell
  Summary witness_bound;        // measured (P, Q) bound per cell
  Summary distinct_decisions;
  double wall_seconds = 0.0;  // the only thread-count-dependent field

  double runs_per_second() const noexcept {
    return runs_per_wall_second(cells, wall_seconds);
  }
};

class AggregateSink : public ReportSink {
 public:
  void cell(const SweepCell& cell, const RunReport& report,
            double seconds) override;
  void end_section(const SectionStats& stats) override;

  const SweepAggregate& aggregate() const noexcept { return agg_; }

 private:
  SweepAggregate agg_;
};

/// Raw cells + reports in cell order, for callers that post-process.
class CollectSink : public ReportSink {
 public:
  void cell(const SweepCell& cell, const RunReport& report,
            double seconds) override;

  const std::vector<SweepCell>& cells() const noexcept { return cells_; }
  const std::vector<RunReport>& reports() const noexcept {
    return reports_;
  }

 private:
  std::vector<SweepCell> cells_;
  std::vector<RunReport> reports_;
};

/// Success-rate matrix, one row per (spec, family) group in
/// first-appearance (cell) order. Deterministic at any thread count.
class TableSink : public ReportSink {
 public:
  void cell(const SweepCell& cell, const RunReport& report,
            double seconds) override;

  std::string render() const;

 private:
  struct Group {
    std::size_t cells = 0;
    std::size_t successes = 0;
    std::size_t detector_ok = 0;
    Summary steps;
  };
  std::vector<std::pair<std::string, Group>> groups_;
  std::map<std::string, std::size_t> index_of_;
};

/// How merge_shard_docs recombines a hand-recorded section fact
/// across shards. Counts over a shard's slice (successes, mismatches,
/// census members) sum; facts that are invariants of the run
/// (series_phases, n_max, a cross-check verdict) must agree and are
/// kept verbatim. Wall-clock facts (a measured speedup, a throughput)
/// go to the section's "timing" object, which no merge keeps and no
/// determinism diff compares.
enum class MergeRule {
  kSum,     // shard-local count: shards add up to the unsharded value
  kSame,    // run invariant: every shard (and the full run) agrees
  kTiming,  // wall-clock fact: lands under the section's "timing"
};

/// One grid section row: the deterministic fields of one cell.
struct GridRow {
  std::size_t index = 0;  // global (unsharded) cell index
  bool success = false;
  bool detector_ok = false;
  int distinct_decisions = 0;
  std::int64_t steps = 0;
  std::int64_t witness_bound = 0;
  // Replay hash of the executed schedule, rendered as a 16-hex-digit
  // string (JSON numbers are doubles and would corrupt it). Rows
  // concatenate verbatim in shard merges, so the hash is identical
  // across merges and thread counts by construction.
  std::uint64_t schedule_hash = 0;
};

/// Accumulates sweep sections and writes BENCH_<name>.json. Grid
/// sections (streamed through the ReportSink hooks) record a per-cell
/// row array of the deterministic fields; hand-fed section() calls
/// cover loops whose results are not RunReports.
///
/// Document layout:
///
///   {"bench", "repeat", "shard", "sections": [...], "total_cells",
///    "timing": {"total_wall_seconds", "runs_per_sec", "threads"}}
///
/// Each section is {"name", "cells", ["same_keys"], annotations...,
/// "timing": {"wall_seconds", "runs_per_sec", kTiming annotations}};
/// a grid section adds "grid_cells", "repeat_factor", the rows-derived
/// facts, "rows", and the per-cell latency percentiles
/// cell_seconds_p50/p90/p99 under its "timing". Everything that may
/// differ between two runs of the same cells lives under a "timing"
/// key, and only there.
///
/// Emission contract (the merge path depends on it): the document
/// always round-trips through a strict JSON parser — strings are
/// escaped, non-finite doubles render as null — and a grid section
/// emits every rows-derived fact whether or not the shard ran any
/// cells (null when empty), so shard documents are schema-identical.
/// The rows-derived facts are successes, detector_ok,
/// steps_p50/p90/p99, witness_bound_p90, and the multi-seed
/// statistics steps_mean/steps_stddev,
/// witness_bound_mean/witness_bound_stddev, success_rate and the 95%
/// confidence intervals ci_steps_low/high, ci_witness_bound_low/high,
/// ci_success_low/high (Student-t for means, normal approximation for
/// the success proportion). The scalars pool the whole section; the
/// "point_stats" array repeats the dispersion keys per grid point
/// (rows grouped by global index / "repeat_factor"), i.e. per point
/// across its --repeat seeds. One function in report.cpp computes all
/// of them, for rendering and for merge_shard_docs alike.
class JsonSink : public ReportSink {
 public:
  struct Config {
    std::string name;       // bench name ("thm24_agreement")
    std::string path;       // output path (BENCH_<name>.json)
    bool enabled = false;   // --json given
    int threads = 1;
    int repeat = 1;
    ShardSpec shard;
  };
  explicit JsonSink(Config config);

  void begin_section(const std::string& name, std::size_t grid_cells,
                     const ShardSpec& shard) override;
  void cell(const SweepCell& cell, const RunReport& report,
            double seconds) override;
  void end_section(const SectionStats& stats) override;

  /// Hand-recorded section for sharded loops whose per-index results
  /// are not RunReports (detector rows, ablation scenarios, ...).
  void section(const std::string& name, std::size_t cells,
               double wall_seconds,
               std::vector<std::pair<std::string, double>> extra = {});

  /// Attaches an extra numeric fact to the most recent section. The
  /// MergeRule tells merge_shard_docs how to recombine the fact; keys
  /// annotated kSame are listed in the section's "same_keys" array so
  /// the rule travels with the document, and kTiming facts go to the
  /// section's "timing" object.
  void annotate(const std::string& key, double value,
                MergeRule rule = MergeRule::kSum);

  /// The JSON document (also what write_if_requested persists).
  std::string render() const;

  /// Writes the JSON file when --json was requested; prints the path.
  void write_if_requested() const;

 private:
  using Facts = std::vector<std::pair<std::string, double>>;
  struct Section {
    std::string name;
    std::size_t cells = 0;
    double wall_seconds = 0.0;
    Facts extra;
    std::vector<std::string> same_keys;  // extras annotated kSame
    Facts timing;  // cell latency percentiles, kTiming annotations
    bool from_grid = false;
    std::size_t grid_cells = 0;  // grid sections only, like the rest
    int repeat_factor = 1;       // --repeat group width
    std::vector<GridRow> rows;
  };

  Config config_;
  std::vector<Section> sections_;
  Section pending_;  // grid section currently streaming
  bool streaming_ = false;
};

// ---------------------------------------------------------------------
// Shard-document merging: the recombination rule behind `shard_merge`.
// Given any set of --cells=LO..HI/SPAN --json documents of one bench
// whose ranges tile the virtual span exactly once (any count, any
// input order), merge_shard_docs produces the document the unsharded
// run would have written, bit-identical outside the "timing" objects:
//
//   - grid sections: the per-cell "rows" arrays concatenate in range
//     order (global indices must stay strictly increasing), and every
//     rows-derived fact is recomputed from the union rows by the same
//     function the unsharded run renders with;
//   - every other section member is an annotation: cells and kSum
//     annotations sum, kSame annotations (the section's same_keys
//     list) must agree;
//   - "timing" objects: wall_seconds sums and runs_per_sec is
//     recomputed; every other timing fact is dropped.
//
// Inconsistent inputs (gaps, overlaps, diverging configs, mismatched
// section sequences) throw MergeError rather than producing a
// silently incomplete document.

class MergeError : public std::runtime_error {
 public:
  explicit MergeError(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// Deep-copies `value` with every member named "timing" removed: the
/// one rule of what a determinism diff may not compare. Merges and
/// `shard_merge --diff` both go through it.
JsonValue strip_timing_keys(const JsonValue& value);

/// Serializes with object keys sorted recursively (compact form), so
/// two documents compare bytewise regardless of emission order.
std::string canonical_json(const JsonValue& value);

/// Merges the range documents of one bench run (any input order) into
/// the unsharded document. Throws MergeError on inconsistency.
JsonValue merge_shard_docs(const std::vector<JsonValue>& docs);

}  // namespace setlib::core

#endif  // SETLIB_CORE_REPORT_H
