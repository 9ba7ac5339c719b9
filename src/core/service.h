// Agreement-as-a-service: the long-lived serving harness.
//
// ServiceHarness turns the one-shot experiment stack into a traffic
// server: a LoadGen request stream is admitted through a bounded FIFO
// queue (overflow is shed, never silently dropped from the accounting),
// admitted requests are grouped into batches of up to B, and each batch
// is ONE engine run (run_agreement with the commands as slot_commands):
// a MultiShotAgreement log with B slots (detector + k Paxos instances
// per slot) run under an S^k_{t+1,n}-enforced schedule — so the
// detector-stabilization cost is amortized over the whole batch.
//
// Arrivals, admission, batching, and per-request latency all live in
// *virtual ticks*. The admission plan — a single-server discrete-event
// pass over the seeded arrival stream with a deterministic batch
// service-time model — is a pure function of the ServiceConfig, cheap
// enough (O(requests) integer arithmetic) that every shard computes
// the full global plan identically. The expensive agreement batches
// then run through ExperimentRunner::run_section — the same section
// stream as every sweep grid: the runner's shard slice, its persistent
// pool, ordered ReportSink rows (one row per batch), and an empty
// close if a batch throws. Aggregate stats are therefore
// bit-identical at any thread count, and the N-shard JSON
// documents merge through core::merge_shard_docs unchanged: row-derived
// facts are recomputed from the union rows, admission/SLO facts are
// global plan invariants annotated MergeRule::kSame, and per-shard
// request counters are annotated kSum.
//
// Threading model: ServiceHarness owns no mutex. The admission plan is
// computed single-threaded; batch execution parallelizes only through
// ExperimentRunner::run_section(), whose pool synchronizes internally
// (runtime/pool.h), and per-batch results are thread-owned until
// the runner's ordered collection phase.
#ifndef SETLIB_CORE_SERVICE_H
#define SETLIB_CORE_SERVICE_H

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/core/loadgen.h"
#include "src/core/report.h"
#include "src/core/runner.h"
#include "src/core/spec.h"

namespace setlib::core {

struct ServiceConfig {
  /// The agreement instance every slot solves. k <= t is required (the
  /// serving stack always runs the detector + Paxos path; the trivial
  /// k > t algorithm has no leader to amortize).
  AgreementSpec spec{1, 1, 4};

  std::int64_t requests = 1'000'000;  // closed-loop stream length
  int batch = 64;                     // B: max slots per agreement pass
  std::int64_t queue_cap = 8192;      // bounded admission queue
  std::uint64_t seed = 1;
  std::int64_t mean_interarrival_ticks = 8;

  /// Virtual service-time model of the closed-loop admission plan:
  /// serving a batch of b requests occupies the server for
  ///   base + per_request * b + jitter  ticks,
  /// jitter drawn deterministically from the batch index in
  /// [0, jitter_ticks). The model is what keeps the plan a pure
  /// function of the config (computable on every shard without running
  /// any agreement); the *measured* cost of each batch — executed
  /// simulator steps — is reported separately through the grid rows.
  std::int64_t service_base_ticks = 96;
  std::int64_t service_ticks_per_request = 4;
  std::int64_t service_jitter_ticks = 32;

  /// Latency SLO over the closed-loop virtual-tick latencies: the
  /// target fraction of admitted requests that must complete within
  /// slo_latency_ticks. Error-budget burn is
  /// violation_rate / (1 - slo_target): 1.0 = the budget is exactly
  /// spent, above 1.0 the SLO is blown.
  std::int64_t slo_latency_ticks = 2000;
  double slo_target = 0.999;

  /// Enforced (P, Q) = (first k, first t+1) timeliness bound of each
  /// batch's schedule.
  std::int64_t timeliness_bound = 3;
  /// Per-slot step budget; a batch of b slots may execute at most
  /// max_steps_per_slot * max(b, 1) simulator steps.
  std::int64_t max_steps_per_slot = 6000;
  std::int64_t stabilization_window = 6;  // detector quiescence check

  void validate() const;
};

/// Latency SLO summary over a latency sample set (virtual ticks or
/// wall microseconds — the math is unit-agnostic). Percentiles are
/// nearest-rank; NaN when there are no samples.
struct SloReport {
  std::int64_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
  std::int64_t violations = 0;   // samples above the threshold
  double violation_rate = 0.0;   // violations / samples
  double error_budget_burn = 0.0;  // violation_rate / (1 - target)
};

/// Nearest-rank percentile of `latencies` at q in [0, 100]: the
/// ceil(q/100 * n)-th smallest sample (1-based), NaN on empty input.
double latency_percentile(const std::vector<std::int64_t>& latencies,
                          double q);

SloReport compute_slo(const std::vector<std::int64_t>& latencies,
                      std::int64_t slo_latency, double slo_target);

/// The closed-loop admission plan: the deterministic discrete-event
/// pass over the arrival stream. Pure function of the ServiceConfig —
/// every shard computes the identical plan.
struct AdmissionPlan {
  /// One batch = the admitted-stream slice
  /// [first_admitted, first_admitted + size).
  struct Batch {
    std::size_t first_admitted = 0;
    int size = 0;
  };

  std::vector<Request> admitted;  // in arrival (= admission) order
  std::vector<std::int64_t> latency_ticks;  // per admitted request
  std::vector<Batch> batches;

  std::int64_t offered = 0;
  std::int64_t accepted = 0;
  std::int64_t shed = 0;
  std::int64_t queue_depth_max = 0;
  double queue_depth_mean = 0.0;  // depth observed at each arrival
  SloReport slo;                  // over latency_ticks
};

/// One executed batch: its engine run and per-slot decisions.
struct BatchOutcome {
  std::int64_t steps = 0;               // report.steps_executed
  std::vector<std::int64_t> decisions;  // per slot (-1 = undecided)
  RunReport report;                     // the batch's run_agreement
};

struct ClosedLoopReport {
  AdmissionPlan plan;   // global: identical on every shard
  SectionStats section;  // this shard's batch grid section
  std::size_t batches_run = 0;      // this shard
  std::int64_t shard_requests = 0;  // requests in this shard's batches
  /// Requests whose slot's (smallest) decided value is the command.
  std::int64_t shard_decided_ok = 0;
  /// (request id, decided value) per request in this shard's batches,
  /// in admitted order — the batching-equivalence observable.
  std::vector<std::pair<std::int64_t, std::int64_t>> decisions;
};

class ServiceHarness {
 public:
  explicit ServiceHarness(ServiceConfig config);

  const ServiceConfig& config() const noexcept { return config_; }

  /// The deterministic admission/batching plan (closed loop).
  AdmissionPlan plan() const;

  /// Batch `index` of `plan` as an engine run: its commands as
  /// slot_commands under the enforced family, seeded from
  /// derive_cell_seed(config.seed, index).
  RunConfig batch_config(const AdmissionPlan& plan,
                         std::size_t index) const;

  /// Executes batch `index` of `plan`: run_agreement(batch_config(...)),
  /// the run run_closed_loop gives the batch.
  /// Pure function of (config, plan, index).
  BatchOutcome run_batch(const AdmissionPlan& plan,
                         std::size_t index) const;

  /// Closed-loop serving: computes the global plan, then runs this
  /// runner-shard's slice of the batches through
  /// ExperimentRunner::run_section, streaming one grid-section row per
  /// batch into `sinks` in batch order. When `json` is given, the
  /// section is annotated with the admission/SLO facts
  /// (kSame: global plan invariants) and the per-shard request
  /// counters (kSum), so the documents of a `--cells` tiling merge
  /// bit-identically to the unsharded run.
  ClosedLoopReport run_closed_loop(
      ExperimentRunner& runner,
      const std::vector<ReportSink*>& sinks = {},
      JsonSink* json = nullptr) const;

 private:
  std::int64_t service_ticks(std::size_t batch_index,
                             int batch_size) const;

  ServiceConfig config_;
};

}  // namespace setlib::core

#endif  // SETLIB_CORE_SERVICE_H
