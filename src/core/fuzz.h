// FuzzLoop: seeded search for bound-regressing schedules.
//
// The paper's bounds are adversary-quantified, so the experimental
// question "how bad can a schedule be for cell (n, i, j)?" is a search
// problem. fuzz_schedules drives a seeded sweep over the
// (family | reactive, params, seed) space through an ExperimentRunner,
// scores every generated schedule with the packed analyzer's best-pair
// bound, and keeps the ones that regress (exceed) the best-known bound
// for their (i, j) cell:
//
//   1. baseline: the family registry (sched/families.h) at registry
//      parameters, a few seeds per family — the "best-known bound" a
//      cell starts from (plus any already-known corpus entries);
//   2. trials: `budget` seeded (adversary, params) draws, each scored
//      on every cell at once;
//   3. findings: a trial beating a cell's best-known bound is greedily
//      minimized (shortest-prefix binary search, then block-deletion
//      passes, each re-verified with the packed scan), re-verified
//      against the reference analyzer, replay-hashed
//      (sched::schedule_hash), and recorded as a CorpusEntry.
//
// Everything is a pure function of (options, known corpus): two runs
// with the same seed and budget emit identical corpora at any thread
// count — trials are scored in parallel via runner.map but findings
// are admitted in trial order.
#ifndef SETLIB_CORE_FUZZ_H
#define SETLIB_CORE_FUZZ_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/sched/schedule.h"
#include "src/util/json.h"
#include "src/util/procset.h"

namespace setlib::core {

/// Largest system size the fuzzer (and corpus verification) supports.
/// Every finding is re-verified with the exhaustive reference analyzer
/// over all C(n, i) * C(n, j) pairs, which stays sub-second per
/// schedule up to n = 10 but explodes combinatorially beyond it.
inline constexpr int kMaxFuzzN = 10;

struct FuzzOptions {
  std::uint64_t seed = 1;
  int budget = 128;  // seeded trials
  int n = 5;         // system size, 2..kMaxFuzzN
  std::int64_t schedule_len = 20'000;
};

/// One corpus record: a minimized, hash-pinned, bound-regressing
/// schedule for cell (n, i, j).
struct CorpusEntry {
  std::uint64_t hash = 0;  // sched::schedule_hash(schedule)
  int n = 0;
  int i = 0;
  int j = 0;
  std::int64_t bound = 0;           // best-pair bound, re-verified
  std::int64_t baseline_bound = 0;  // cell's best-known before this
  std::string adversary;            // family/reactive registry token
  std::uint64_t trial_seed = 0;     // the trial's derived seed
  std::int64_t raw_len = 0;         // schedule length before minimizing
  ProcSet timely_set;               // the packed scan's argmin pair
  ProcSet observed_set;
  sched::Schedule schedule{1};      // minimized step stream
};

/// Final best-known bound per (i, j) cell.
struct FuzzCell {
  int i = 0;
  int j = 0;
  std::int64_t baseline = 0;  // family-registry (+ known corpus) bound
  std::int64_t best = 0;      // after the fuzz run
};

struct FuzzResult {
  int trials = 0;
  std::vector<CorpusEntry> findings;  // discovery (trial) order
  std::vector<FuzzCell> cells;        // all 1 <= i < j <= n cells
};

/// Runs the seeded search. `known` (e.g. the checked-in corpus) raises
/// the starting best-known bounds so already-recorded regressions are
/// not rediscovered. Deterministic for fixed (options, known) at any
/// thread count.
FuzzResult fuzz_schedules(ExperimentRunner& runner,
                          const FuzzOptions& options,
                          const std::vector<CorpusEntry>& known = {});

// --- Corpus serialization (tests/corpus/<hash>.json) ---

/// Renders an entry as a self-contained JSON document (schema 1).
/// 64-bit values (hash, trial_seed) travel as strings: JSON numbers
/// are doubles and would corrupt them.
std::string corpus_entry_json(const CorpusEntry& entry);

/// Parses a schema-1 corpus document. Throws JsonParseError on
/// malformed JSON and std::runtime_error on schema violations.
CorpusEntry parse_corpus_entry(const JsonValue& doc);

struct CorpusVerdict {
  bool ok = false;
  std::string detail;  // human-readable failure reason
};

/// Replays an entry: recomputes the schedule hash, the packed
/// best-pair bound, and the exhaustive reference-analyzer bound, and
/// checks all three against the recorded values. This is the drift
/// detector the corpus test and `schedule_fuzzer --verify` run.
CorpusVerdict verify_corpus_entry(const CorpusEntry& entry);

}  // namespace setlib::core

#endif  // SETLIB_CORE_FUZZ_H
