#include "src/core/service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "src/util/assert.h"

namespace setlib::core {

namespace {

/// Seed-space salt so the admission plan's service-time jitter never
/// collides with the batch seeds, which use the unsalted (config seed,
/// batch index) stream.
constexpr std::uint64_t kJitterSalt = 0x73657276696365ULL;  // "service"

/// Nearest-rank pick from an already-sorted sample set.
double sorted_percentile(const std::vector<std::int64_t>& sorted,
                         double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 100.0);
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

}  // namespace

void ServiceConfig::validate() const {
  spec.validate();
  // The serving stack always runs the detector + Paxos path; the
  // trivial k > t algorithm has no leader for batching to amortize.
  SETLIB_EXPECTS(spec.k <= spec.t);
  SETLIB_EXPECTS(requests >= 0);
  SETLIB_EXPECTS(batch >= 1);
  SETLIB_EXPECTS(queue_cap >= 1);
  SETLIB_EXPECTS(mean_interarrival_ticks >= 0);
  SETLIB_EXPECTS(service_base_ticks >= 0);
  SETLIB_EXPECTS(service_ticks_per_request >= 0);
  SETLIB_EXPECTS(service_jitter_ticks >= 0);
  SETLIB_EXPECTS(slo_latency_ticks >= 0);
  SETLIB_EXPECTS(slo_target > 0.0 && slo_target < 1.0);
  SETLIB_EXPECTS(timeliness_bound >= 1);
  SETLIB_EXPECTS(max_steps_per_slot >= 1);
  SETLIB_EXPECTS(stabilization_window >= 0);
}

double latency_percentile(const std::vector<std::int64_t>& latencies,
                          double q) {
  std::vector<std::int64_t> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  return sorted_percentile(sorted, q);
}

SloReport compute_slo(const std::vector<std::int64_t>& latencies,
                      std::int64_t slo_latency, double slo_target) {
  std::vector<std::int64_t> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  SloReport slo;
  slo.samples = static_cast<std::int64_t>(sorted.size());
  slo.p50 = sorted_percentile(sorted, 50.0);
  slo.p99 = sorted_percentile(sorted, 99.0);
  slo.p999 = sorted_percentile(sorted, 99.9);
  slo.max = sorted.empty() ? std::numeric_limits<double>::quiet_NaN()
                           : static_cast<double>(sorted.back());
  for (const std::int64_t latency : sorted) {
    if (latency > slo_latency) ++slo.violations;
  }
  slo.violation_rate =
      slo.samples > 0 ? static_cast<double>(slo.violations) /
                            static_cast<double>(slo.samples)
                      : 0.0;
  const double budget = 1.0 - slo_target;
  slo.error_budget_burn = budget > 0.0 ? slo.violation_rate / budget : 0.0;
  return slo;
}

ServiceHarness::ServiceHarness(ServiceConfig config) : config_(config) {
  config_.validate();
}

std::int64_t ServiceHarness::service_ticks(std::size_t batch_index,
                                           int batch_size) const {
  std::int64_t ticks =
      config_.service_base_ticks +
      config_.service_ticks_per_request * batch_size;
  if (config_.service_jitter_ticks > 0) {
    const std::uint64_t mix =
        derive_cell_seed(config_.seed ^ kJitterSalt, batch_index);
    ticks += static_cast<std::int64_t>(
        mix % static_cast<std::uint64_t>(config_.service_jitter_ticks));
  }
  return ticks;
}

AdmissionPlan ServiceHarness::plan() const {
  LoadGen gen(LoadGenConfig{config_.requests, config_.seed,
                            config_.mean_interarrival_ticks});
  const std::vector<Request> arrivals = gen.arrivals();

  AdmissionPlan plan;
  plan.offered = config_.requests;
  plan.admitted.reserve(arrivals.size());
  plan.latency_ticks.reserve(arrivals.size());

  // Single-server discrete-event walk. The queue is the
  // admitted-but-unserved suffix admitted[served..]; the server packs
  // the longest causal batch (members must have arrived by the batch's
  // start tick) up to the configured width.
  std::size_t served = 0;
  std::int64_t server_free = 0;
  std::int64_t depth_sum = 0;

  const auto serve_front = [&](std::int64_t horizon, bool drain) {
    if (served == plan.admitted.size()) return false;
    const std::int64_t start =
        std::max(server_free, plan.admitted[served].arrival_tick);
    if (!drain && start >= horizon) return false;
    int size = 0;
    while (size < config_.batch &&
           served + static_cast<std::size_t>(size) < plan.admitted.size() &&
           plan.admitted[served + static_cast<std::size_t>(size)]
                   .arrival_tick <= start) {
      ++size;
    }
    const std::int64_t completion =
        start + service_ticks(plan.batches.size(), size);
    for (int s = 0; s < size; ++s) {
      plan.latency_ticks.push_back(
          completion -
          plan.admitted[served + static_cast<std::size_t>(s)].arrival_tick);
    }
    plan.batches.push_back(AdmissionPlan::Batch{served, size});
    served += static_cast<std::size_t>(size);
    server_free = completion;
    return true;
  };

  for (const Request& request : arrivals) {
    // Let the server catch up to this arrival before the admission
    // decision, so the observed queue depth is the depth at the
    // arrival instant.
    while (serve_front(request.arrival_tick, /*drain=*/false)) {
    }
    const auto depth =
        static_cast<std::int64_t>(plan.admitted.size() - served);
    if (depth >= config_.queue_cap) {
      ++plan.shed;
    } else {
      plan.admitted.push_back(request);
    }
    const auto observed =
        static_cast<std::int64_t>(plan.admitted.size() - served);
    plan.queue_depth_max = std::max(plan.queue_depth_max, observed);
    depth_sum += observed;
  }
  while (serve_front(0, /*drain=*/true)) {
  }
  SETLIB_ASSERT(served == plan.admitted.size());
  SETLIB_ASSERT(plan.latency_ticks.size() == plan.admitted.size());

  plan.accepted = static_cast<std::int64_t>(plan.admitted.size());
  SETLIB_ASSERT(plan.accepted + plan.shed == plan.offered);
  plan.queue_depth_mean =
      plan.offered > 0 ? static_cast<double>(depth_sum) /
                             static_cast<double>(plan.offered)
                       : 0.0;
  plan.slo = compute_slo(plan.latency_ticks, config_.slo_latency_ticks,
                         config_.slo_target);
  return plan;
}

RunConfig ServiceHarness::batch_config(const AdmissionPlan& plan,
                                       std::size_t index) const {
  SETLIB_EXPECTS(index < plan.batches.size());
  const AdmissionPlan::Batch& batch = plan.batches[index];
  RunConfig config;
  config.spec = config_.spec;
  config.system =  // (P, Q) = (first k, first t+1)
      SystemSpec{config_.spec.k, config_.spec.t + 1, config_.spec.n};
  config.family = ScheduleFamily::kEnforcedRandom;
  config.seed = derive_cell_seed(config_.seed, index);
  config.timeliness_bound = config_.timeliness_bound;
  config.max_steps =
      config_.max_steps_per_slot * static_cast<std::int64_t>(batch.size);
  config.stabilization_window = config_.stabilization_window;
  // Every replica proposes the client's command for its slot, so Paxos
  // validity pins the decision to the command: B=1 and B=64 agree.
  config.slot_commands.reserve(static_cast<std::size_t>(batch.size));
  for (int s = 0; s < batch.size; ++s) {
    config.slot_commands.push_back(
        plan.admitted[batch.first_admitted + static_cast<std::size_t>(s)]
            .command);
  }
  return config;
}

BatchOutcome ServiceHarness::run_batch(const AdmissionPlan& plan,
                                       std::size_t index) const {
  // A batch-sized reserve: 2,000 steps pack into about 1 KB.
  util::ArenaAllocator arena(std::size_t{64} << 10);
  BatchOutcome out;
  out.report = run_agreement(batch_config(plan, index), arena);
  out.steps = out.report.steps_executed;
  for (const std::optional<std::int64_t>& decision : out.report.decisions) {
    out.decisions.push_back(decision.value_or(-1));
  }
  return out;
}

ClosedLoopReport ServiceHarness::run_closed_loop(
    ExperimentRunner& runner, const std::vector<ReportSink*>& sinks,
    JsonSink* json) const {
  ClosedLoopReport out;
  out.plan = plan();
  const AdmissionPlan& admission = out.plan;

  // Folds each batch's row into the request -> decision map, in batch
  // order.
  struct DecisionSink final : ReportSink {
    ClosedLoopReport* out = nullptr;
    void cell(const SweepCell& cell, const RunReport& report,
              double) override {
      const AdmissionPlan::Batch& batch = out->plan.batches[cell.index];
      for (int s = 0; s < batch.size; ++s) {
        const Request& request =
            out->plan.admitted[batch.first_admitted +
                               static_cast<std::size_t>(s)];
        const std::optional<std::int64_t> decision =
            report.decisions[static_cast<std::size_t>(s)];
        out->decisions.emplace_back(request.id, decision.value_or(-1));
        if (decision == request.command) ++out->shard_decided_ok;
      }
      out->shard_requests += batch.size;
      ++out->batches_run;
    }
  } folded;
  folded.out = &out;
  std::vector<ReportSink*> all_sinks = sinks;
  all_sinks.push_back(&folded);
  if (json != nullptr) all_sinks.push_back(json);

  // One grid cell per batch, so the sinks (and the shard-merge path
  // behind them) see a normal sweep section.
  out.section = runner.run_section(
      "closed_loop", admission.batches.size(), 1, all_sinks,
      [&](std::size_t index) {
        SweepCell cell;
        cell.index = index;
        cell.config = batch_config(admission, index);
        return cell;
      },
      [](const SweepCell& cell, util::ArenaAllocator& arena) {
        return run_agreement(cell.config, arena);
      });

  if (json != nullptr) {
    // Global plan invariants: every shard computes the identical
    // admission plan, so these must agree across shards (kSame). The
    // request counters below them cover only this shard's batches and
    // sum (kSum).
    json->annotate("requests_offered",
                   static_cast<double>(admission.offered),
                   MergeRule::kSame);
    json->annotate("requests_accepted",
                   static_cast<double>(admission.accepted),
                   MergeRule::kSame);
    json->annotate("requests_shed", static_cast<double>(admission.shed),
                   MergeRule::kSame);
    json->annotate("queue_cap", static_cast<double>(config_.queue_cap),
                   MergeRule::kSame);
    json->annotate("batch_max", static_cast<double>(config_.batch),
                   MergeRule::kSame);
    json->annotate("queue_depth_max",
                   static_cast<double>(admission.queue_depth_max),
                   MergeRule::kSame);
    json->annotate("queue_depth_mean", admission.queue_depth_mean,
                   MergeRule::kSame);
    json->annotate("latency_p50_ticks", admission.slo.p50,
                   MergeRule::kSame);
    json->annotate("latency_p99_ticks", admission.slo.p99,
                   MergeRule::kSame);
    json->annotate("latency_p999_ticks", admission.slo.p999,
                   MergeRule::kSame);
    json->annotate("latency_max_ticks", admission.slo.max,
                   MergeRule::kSame);
    json->annotate("slo_latency_ticks",
                   static_cast<double>(config_.slo_latency_ticks),
                   MergeRule::kSame);
    json->annotate("slo_target", config_.slo_target, MergeRule::kSame);
    json->annotate("slo_violations",
                   static_cast<double>(admission.slo.violations),
                   MergeRule::kSame);
    json->annotate("error_budget_burn", admission.slo.error_budget_burn,
                   MergeRule::kSame);
    json->annotate("batch_requests",
                   static_cast<double>(out.shard_requests),
                   MergeRule::kSum);
    json->annotate("decided_ok",
                   static_cast<double>(out.shard_decided_ok),
                   MergeRule::kSum);
  }

  return out;
}

}  // namespace setlib::core
