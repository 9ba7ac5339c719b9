// The multi-process orchestrator: launches workers of one bench binary
// and merges their JSON documents into the document the unsharded run
// would have written.
//
// orchestrate_elastic() runs the lease-based work queue
// (core::WorkQueue): the virtual cell space is carved into many small
// ranges, workers lease ranges with deadlines (--cells=LO..HI),
// expired or straggling leases are split and re-leased, so a dead or
// slow worker's work redistributes across the survivors. A static
// N-way partition is the special case of N leases K..K+1/N that never
// re-lease.
//
// It never touches runtime::Subprocess directly: every worker launch
// goes through runtime::Transport, so an ssh-style remote transport is
// a drop-in (see docs/ORCHESTRATION.md).
//
// The contract tested in CI: for a deterministic bench,
//   orchestrate_elastic(bench, ...).merged == unsharded --json document
// bit-identical outside the "timing" objects, regardless of
// which workers died, which ranges were resharded, or in what order
// leases completed.
#ifndef SETLIB_CORE_ORCHESTRATOR_H
#define SETLIB_CORE_ORCHESTRATOR_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/report.h"
#include "src/core/workqueue.h"
#include "src/runtime/subprocess.h"
#include "src/runtime/transport.h"
#include "src/util/json.h"

namespace setlib::core {

/// Bounded exponential backoff between a worker's consecutive lease
/// failures, with deterministic seeded jitter: attempt a (1-based)
/// sleeps jitter * min(cap, base * 2^(a-1)), jitter in [0.5, 1.0]
/// drawn by splitmix64 from (seed, stream, attempt) — so a given
/// (seed, worker, attempt) always backs off the same amount, and
/// concurrent failing workers de-synchronize instead of stampeding.
struct BackoffOptions {
  std::chrono::milliseconds base{200};
  std::chrono::milliseconds cap{5'000};
  std::uint64_t seed = 0x5e7b0ff5u;
};

/// The delay before retry `attempt` (1-based; attempt 0 = first try,
/// never delayed) of retry stream `stream` (the worker id). Pure
/// function of its arguments — exported so tests can pin it.
std::chrono::milliseconds backoff_delay(const BackoffOptions& options,
                                        std::uint64_t stream,
                                        int attempt);

struct ElasticOrchestratorOptions {
  std::string bench;                    // worker binary path
  std::vector<std::string> bench_args;  // forwarded to every worker
  int workers = 3;                      // concurrent worker loops
  /// Width of the virtual cell space (workers get --cells=LO..HI/SPAN).
  std::size_t span = ShardSpec::kLeaseSpan;
  /// Initial lease-range count; 0 = auto (max(8, 8 * workers)).
  std::size_t ranges = 0;
  /// Lease deadline, mirrored into the worker's transport timeout so a
  /// local child cannot outlive its lease. Zero is invalid.
  std::chrono::milliseconds lease_timeout{300'000};
  /// Straggler policy (see WorkQueueOptions).
  double straggler_factor = 4.0;
  std::chrono::milliseconds straggler_min{1'000};
  /// Failures tolerated before aborting; 0 = auto (2 * ranges + 8).
  std::size_t failure_budget = 0;
  std::string shard_dir = "orchestrator_shards";  // lease JSONs land here
  bool keep_shards = false;
  /// Worker launch seam; null = a process-local LocalExecTransport.
  runtime::Transport* transport = nullptr;
  /// Backoff between a worker's consecutive lease failures.
  BackoffOptions backoff;
  /// Injectable time source for the queue (tests); empty = steady_clock.
  WorkQueueClock clock;
};

/// Outcome of one lease attempt (one worker child).
struct LeaseRun {
  std::uint64_t lease = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;  // virtual range, half-open
  int worker = -1;
  bool ok = false;        // child succeeded and wrote a parsable doc
  bool accepted = false;  // the queue counted the completion
  std::string json_path;
  std::string error;  // why the lease failed ("" when ok)
  runtime::SubprocessResult last;
};

struct ElasticResult {
  std::vector<LeaseRun> leases;  // every lease attempt, in finish order
  WorkQueueReport queue;         // the scheduler's accounting
  std::string merge_error;       // non-empty when merging failed
  /// The merged document, with the orchestration report attached as
  /// "orchestration" inside its top-level "timing" object (excluded
  /// from determinism diffs). Valid iff ok().
  JsonValue merged;

  bool ok() const;
  /// Human report: per-worker totals, lease events, failures.
  std::string summary() const;
};

/// Runs the elastic schedule: `workers` concurrent loops lease ranges
/// off a WorkQueue, run `bench --cells=LO..HI/SPAN --json=...` through the
/// transport, and complete or fail the lease; expired and straggling
/// leases are split and re-leased. Never throws on worker failure —
/// inspect ok()/summary(); throws ContractViolation only on misuse.
ElasticResult orchestrate_elastic(const ElasticOrchestratorOptions& options);

/// Removes the per-lease JSON documents (and the shard directory, if
/// it is empty afterwards). Call only once the merged document has
/// been persisted.
void remove_lease_documents(const ElasticOrchestratorOptions& options,
                            const ElasticResult& result);

}  // namespace setlib::core

#endif  // SETLIB_CORE_ORCHESTRATOR_H
