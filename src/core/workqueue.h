// Lease-based cell scheduling over the ShardSpec virtual span.
//
// The global cell space is virtual here: WorkQueue carves the
// half-open interval [0, span) — span = ShardSpec::kLeaseSpan unless
// overridden — into many small ranges (far more ranges than workers).
// A worker leases a range with a deadline, runs it (the orchestrator
// expresses the lease as the worker's `--cells=LO..HI` flag; every
// sharded cell space of size T maps it to [T*LO/span, T*HI/span), so
// ranges that tile the virtual space tile every real space), and
// heartbeats by completing it. A lease that
//
//   - fails (the worker died: crash, SIGKILL, timeout, bad output) or
//   - expires (its deadline passed with no word from the worker)
//
// is split in two and requeued, so a dead worker's work redistributes
// across the survivors; a lease that visibly lags (a straggler: age
// beyond straggler_factor x the median completed-lease time while an
// idle worker is asking for work) is superseded — split, requeued,
// re-leased — and its own late completion is discarded.
//
// Determinism contract: none of this scheduling is deterministic, and
// none of it needs to be. Per-cell results are pure functions of the
// global flat index, completed leases tile the space exactly once
// (superseded/discarded completions never count), and
// core::merge_shard_docs recomputes every derived fact from the union
// rows — so the merged document is bit-identical to the unsharded run
// no matter which workers died, which ranges were resharded, or in
// what order leases completed. The queue's own accounting (leases
// issued/expired/resharded, straggler events) is reported under
// timing-key rules, excluded from determinism diffs.
#ifndef SETLIB_CORE_WORKQUEUE_H
#define SETLIB_CORE_WORKQUEUE_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/report.h"
#include "src/util/json.h"
#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace setlib::core {

/// Injectable time source so the lease/expiry/straggler machinery is
/// testable without wall-clock sleeps.
using WorkQueueClock =
    std::function<std::chrono::steady_clock::time_point()>;

struct WorkQueueOptions {
  /// Width of the virtual cell space the queue schedules.
  std::size_t span = ShardSpec::kLeaseSpan;
  /// Initial range count (the queue's scheduling granularity);
  /// 0 = auto: max(8, 8 * workers), capped at span.
  std::size_t ranges = 0;
  /// Hint for the auto range count.
  int workers = 1;
  /// Lease deadline: a lease not completed/failed within this budget
  /// is presumed dead and requeued. The orchestrator mirrors it into
  /// the worker's transport timeout so local children cannot outlive
  /// their lease.
  std::chrono::milliseconds lease_timeout{300'000};
  /// A live lease is a straggler once its age exceeds
  /// max(straggler_min, straggler_factor * median completed-lease
  /// time) while an idle worker has nothing else to lease. 0 disables
  /// straggler resharding.
  double straggler_factor = 4.0;
  std::chrono::milliseconds straggler_min{1'000};
  /// Total failures (failed + expired leases) tolerated before the
  /// queue aborts the run; 0 = auto: 2 * initial ranges + 8.
  std::size_t failure_budget = 0;
  /// Time source; empty = std::chrono::steady_clock::now.
  WorkQueueClock clock;
};

/// One leased virtual range, as handed to a worker.
struct Lease {
  std::uint64_t id = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;  // half-open: [lo, hi)
  std::chrono::steady_clock::time_point deadline;

  std::size_t width() const noexcept { return hi - lo; }
  /// The lease as a worker ShardSpec (--cells=LO..HI[/SPAN]).
  ShardSpec shard(std::size_t span) const;
};

/// One entry in the queue's event log (the orchestration report).
struct LeaseEvent {
  enum class Kind { kFailed, kExpired, kSuperseded };
  Kind kind = Kind::kFailed;
  std::uint64_t lease = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;
  int worker = -1;
  double age_seconds = 0.0;
  bool split = false;  // the range was split on requeue (a reshard)
  std::string detail;  // e.g. the worker's failure description
};

const char* lease_event_kind_name(LeaseEvent::Kind kind) noexcept;

/// Snapshot of the queue's accounting, for summaries and the merged
/// document's "orchestration" member.
struct WorkQueueReport {
  std::size_t span = 0;
  std::size_t initial_ranges = 0;
  std::size_t leases_issued = 0;
  std::size_t leases_completed = 0;   // accepted completions
  std::size_t leases_failed = 0;      // worker reported failure
  std::size_t leases_expired = 0;     // deadline passed, no word
  std::size_t leases_superseded = 0;  // straggler replaced
  std::size_t leases_resharded = 0;   // ranges split on requeue
  std::size_t completions_discarded = 0;  // late superseded results
  std::size_t failure_budget = 0;
  std::size_t failures_spent = 0;
  std::string abort_reason;  // non-empty when the budget ran out
  std::vector<LeaseEvent> events;

  /// Rendered for the merged document. Every fact in here is a
  /// wall-clock/scheduling fact, so the whole object lives as
  /// "orchestration" inside the document's "timing" object, which
  /// determinism diffs exclude.
  JsonValue to_json() const;
};

/// Thread-safe lease scheduler over the virtual cell space. Workers
/// loop acquire -> run -> complete/fail until acquire returns nullopt
/// (all work accepted, or the failure budget is spent).
class WorkQueue {
 public:
  explicit WorkQueue(WorkQueueOptions options);

  /// Blocks until a range can be leased (possibly by expiring or
  /// superseding another lease), all work is done, or the queue
  /// aborted. nullopt = stop; check done()/aborted().
  std::optional<Lease> acquire(int worker);

  /// Reports a finished lease. True = the completion was accepted and
  /// the range is done; false = the lease had been superseded or
  /// expired meanwhile and the worker's document must be discarded.
  bool complete(std::uint64_t lease_id);

  /// Reports a failed lease (dead/crashed/timed-out worker, bad
  /// output). The range is split and requeued; `reason` lands in the
  /// event log. Spends failure budget. Ignored for superseded leases.
  void fail(std::uint64_t lease_id, const std::string& reason);

  /// Every virtual cell has an accepted completion.
  bool done() const;
  /// The failure budget ran out; remaining workers should stop.
  bool aborted() const;

  std::size_t span() const noexcept { return options_.span; }
  WorkQueueReport report() const;

 private:
  struct Range {
    std::size_t lo = 0;
    std::size_t hi = 0;
  };
  struct Active {
    Range range;
    int worker = -1;
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point deadline;
  };

  std::chrono::steady_clock::time_point now() const;
  /// Requeues a range, splitting it when it is at least 2 wide.
  /// Returns whether it split. Caller holds mu_.
  bool requeue_split_locked(const Range& range) SETLIB_REQUIRES(mu_);
  void spend_failure_locked(const std::string& reason)
      SETLIB_REQUIRES(mu_);
  /// Moves expired leases back to pending. Caller holds mu_.
  void expire_locked(std::chrono::steady_clock::time_point t)
      SETLIB_REQUIRES(mu_);
  /// Supersedes the oldest straggler when an idle worker needs work.
  /// Returns whether anything was requeued. Caller holds mu_.
  bool reshard_straggler_locked(std::chrono::steady_clock::time_point t)
      SETLIB_REQUIRES(mu_);

  // Finalized by the constructor, immutable afterwards.
  WorkQueueOptions options_;
  std::size_t initial_ranges_ = 0;

  mutable util::Mutex mu_;
  util::CondVar cv_;
  std::vector<Range> pending_ SETLIB_GUARDED_BY(mu_);
  std::map<std::uint64_t, Active> active_ SETLIB_GUARDED_BY(mu_);
  // Virtual cells without an accepted result.
  std::size_t remaining_ SETLIB_GUARDED_BY(mu_) = 0;
  std::uint64_t next_id_ SETLIB_GUARDED_BY(mu_) = 1;
  // Accepted lease durations.
  std::vector<double> completed_seconds_ SETLIB_GUARDED_BY(mu_);
  WorkQueueReport stats_ SETLIB_GUARDED_BY(mu_);
  bool aborted_ SETLIB_GUARDED_BY(mu_) = false;
};

}  // namespace setlib::core

#endif  // SETLIB_CORE_WORKQUEUE_H
