#include "src/core/service.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <thread>

#include "src/agreement/multishot.h"
#include "src/fd/kantiomega.h"
#include "src/fd/property.h"
#include "src/sched/analyzer.h"
#include "src/sched/enforcer.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"
#include "src/util/assert.h"

namespace setlib::core {

namespace {

/// Seed-space salts so the admission plan's service-time jitter and the
/// open-loop batch seeds never collide with the closed-loop batch
/// seeds, which use the unsalted (config seed, batch index) stream.
constexpr std::uint64_t kJitterSalt = 0x73657276696365ULL;   // "service"
constexpr std::uint64_t kOpenLoopSalt = 0x6f70656e6c6fULL;   // "openlo"

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
  SETLIB_EXPECTS(open_slo_latency_us >= 0);
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

BatchOutcome ServiceHarness::run_commands(
    const std::vector<std::int64_t>& commands, std::uint64_t seed) const {
  const int n = config_.spec.n;
  const int k = config_.spec.k;
  const int t = config_.spec.t;
  const int slots = static_cast<int>(commands.size());
  SETLIB_EXPECTS(slots >= 1);

  shm::SimMemory mem;
  shm::Simulator sim(mem, n);
  fd::KAntiOmega detector(mem, fd::KAntiOmega::Params{n, k, t, 1});
  agreement::MultiShotAgreement log(
      mem, agreement::MultiShotAgreement::Params{n, k, t, slots},
      &detector);
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(detector.run(p), "kanti-omega");
    // Every replica proposes the client's command for each slot, so
    // Paxos validity pins the decision to the command itself — which
    // is what makes B=1 and B=64 decide identically.
    log.install(sim.process(p), p, commands);
  }

  const ProcSet timely = ProcSet::range(0, k);
  const ProcSet observed = ProcSet::range(0, t + 1);
  auto base = std::make_unique<sched::UniformRandomGenerator>(n, seed);
  std::vector<sched::TimelinessConstraint> constraints;
  constraints.emplace_back(timely, observed, config_.timeliness_bound);
  sched::EnforcedGenerator gen(std::move(base), std::move(constraints),
                               sched::CrashPlan::none(n));

  const ProcSet everyone = ProcSet::universe(n);
  const std::int64_t budget =
      config_.max_steps_per_slot * static_cast<std::int64_t>(slots);
  BatchOutcome out;
  out.steps = sim.run_until(gen, budget,
                            [&] { return log.all_decided(everyone); });

  out.decisions.assign(static_cast<std::size_t>(slots), -1);
  int max_distinct = 0;
  for (int s = 0; s < slots; ++s) {
    const auto tally = log.slot_tally(s, everyone);
    max_distinct = std::max(max_distinct, tally.distinct);
    if (tally.distinct > 0) {
      out.decisions[static_cast<std::size_t>(s)] = tally.smallest;
    }
    // Every decider decided the slot's own command.
    if (tally.distinct == 1 &&
        tally.smallest == commands[static_cast<std::size_t>(s)]) {
      ++out.decided_ok;
    }
  }
  out.distinct_decisions = max_distinct;
  out.success = log.all_decided(everyone) &&
                out.decided_ok == static_cast<std::int64_t>(slots);

  // Detector quiescence over the trailing window — the engine's
  // "eventually forever on a finite run" check.
  std::int64_t min_it = -1;
  for (Pid p = 0; p < n; ++p) {
    const std::int64_t it = detector.view(p).iterations;
    min_it = min_it < 0 ? it : std::min(min_it, it);
  }
  const std::int64_t window =
      std::max(config_.stabilization_window,
               std::max<std::int64_t>(min_it, 0) / 3);
  const auto prop = fd::check_kantiomega(detector, everyone, window);
  out.detector_ok = prop.abstract_ok;

  out.witness_bound =
      sched::min_timeliness_bound(sim.executed(), timely, observed);
  return out;
}

BatchOutcome ServiceHarness::run_batch(const AdmissionPlan& plan,
                                       std::size_t index) const {
  SETLIB_EXPECTS(index < plan.batches.size());
  const AdmissionPlan::Batch& batch = plan.batches[index];
  std::vector<std::int64_t> commands;
  commands.reserve(static_cast<std::size_t>(batch.size));
  for (int s = 0; s < batch.size; ++s) {
    commands.push_back(
        plan.admitted[batch.first_admitted + static_cast<std::size_t>(s)]
            .command);
  }
  return run_commands(commands, derive_cell_seed(config_.seed, index));
}

ClosedLoopReport ServiceHarness::run_closed_loop(
    ExperimentRunner& runner, const std::vector<ReportSink*>& sinks,
    JsonSink* json) const {
  ClosedLoopReport out;
  out.plan = plan();
  const AdmissionPlan& admission = out.plan;
  const std::size_t total = admission.batches.size();

  std::vector<ReportSink*> all_sinks = sinks;
  if (json != nullptr) all_sinks.push_back(json);

  for (ReportSink* sink : all_sinks) {
    sink->begin_section("closed_loop", total, runner.options().shard);
  }

  const auto [begin, end] = runner.shard_range(total);
  std::vector<BatchOutcome> outcomes(end - begin);
  const WallTimer timer;
  if (!outcomes.empty()) {
    const std::size_t grain =
        runner.options().grain != 0 ? runner.options().grain : 1;
    runner.pool().for_each(
        outcomes.size(),
        [&](std::size_t i) {
          const WallTimer batch_timer;
          outcomes[i] = run_batch(admission, begin + i);
          outcomes[i].seconds = batch_timer.seconds();
        },
        grain);
  }

  SectionStats stats;
  stats.name = "closed_loop";
  stats.grid_cells = total;
  stats.cells = outcomes.size();
  stats.repeats = 1;
  stats.shard = runner.options().shard;
  stats.wall_seconds = timer.seconds();
  stats.runs_per_second =
      stats.wall_seconds > 0.0
          ? static_cast<double>(stats.cells) / stats.wall_seconds
          : 0.0;

  for (std::size_t i = 0; i < outcomes.size(); ++i) {  // batch order
    const std::size_t global = begin + i;
    const BatchOutcome& outcome = outcomes[i];
    const AdmissionPlan::Batch& batch = admission.batches[global];
    stats.steps.add(static_cast<double>(outcome.steps));
    stats.cell_seconds.add(outcome.seconds);

    // One synthesized grid cell per batch, so the existing sinks (and
    // the shard-merge path behind them) see a normal sweep section.
    SweepCell cell;
    cell.index = global;
    cell.repeat = 0;
    cell.config.spec = config_.spec;
    cell.config.system =
        SystemSpec{config_.spec.k, config_.spec.t + 1, config_.spec.n};
    cell.config.family = ScheduleFamily::kEnforcedRandom;
    cell.config.seed = derive_cell_seed(config_.seed, global);
    cell.config.timeliness_bound = config_.timeliness_bound;
    cell.config.max_steps =
        config_.max_steps_per_slot *
        static_cast<std::int64_t>(std::max(batch.size, 1));
    cell.config.stabilization_window = config_.stabilization_window;

    RunReport report;
    report.success = outcome.success;
    report.terminated = outcome.success;
    report.agreement_ok = outcome.success;
    report.validity_ok = outcome.success;
    report.distinct_decisions = outcome.distinct_decisions;
    report.steps_executed = outcome.steps;
    report.witness_bound = outcome.witness_bound;
    report.algorithm = "kanti-omega+multishot";
    report.detector.used = true;
    report.detector.abstract_ok = outcome.detector_ok;
    report.detector.stabilized = outcome.detector_ok;

    for (ReportSink* sink : all_sinks) {
      sink->cell(cell, report, outcome.seconds);
    }

    for (int s = 0; s < batch.size; ++s) {
      const Request& request =
          admission
              .admitted[batch.first_admitted + static_cast<std::size_t>(s)];
      out.decisions.emplace_back(
          request.id, outcome.decisions[static_cast<std::size_t>(s)]);
    }
    out.shard_requests += batch.size;
    out.shard_decided_ok += outcome.decided_ok;
  }
  for (ReportSink* sink : all_sinks) sink->end_section(stats);

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

  out.section = stats;
  out.batches_run = outcomes.size();
  return out;
}

OpenLoopReport ServiceHarness::run_open_loop(ExperimentRunner& runner,
                                             std::int64_t target_qps,
                                             std::chrono::seconds duration,
                                             JsonSink* json) const {
  SETLIB_EXPECTS(target_qps > 0);
  SETLIB_EXPECTS(duration.count() >= 0);

  // Only the stateless command derivation is reused here; arrival
  // pacing comes from the wall clock.
  LoadGen gen(LoadGenConfig{0, config_.seed,
                            config_.mean_interarrival_ticks});

  using Clock = std::chrono::steady_clock;
  struct Pending {
    std::int64_t id = 0;
    Clock::time_point enqueued;
  };

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + duration;
  std::deque<Pending> queue;
  std::vector<std::int64_t> latency_us;
  OpenLoopReport out;
  out.qps_target = static_cast<double>(target_qps);
  std::int64_t next_id = 0;
  std::size_t open_batches = 0;
  const int lanes = std::max(1, runner.pool().threads());

  for (Clock::time_point now = Clock::now(); now < deadline;
       now = Clock::now()) {
    // Admit everything the pacing says should have arrived by `now`;
    // the queue cap sheds the overflow, never blocks the generator.
    const std::chrono::duration<double> elapsed = now - start;
    const auto due = static_cast<std::int64_t>(
        elapsed.count() * static_cast<double>(target_qps));
    while (next_id < due) {
      ++out.offered;
      if (static_cast<std::int64_t>(queue.size()) >= config_.queue_cap) {
        ++out.shed;
      } else {
        queue.push_back(Pending{next_id, now});
      }
      ++next_id;
    }
    if (queue.empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }

    // Drain one round: up to one batch per pool lane, fanned out
    // through the persistent workers.
    std::vector<std::vector<Pending>> batches;
    while (!queue.empty() &&
           static_cast<int>(batches.size()) < lanes) {
      std::vector<Pending> members;
      while (!queue.empty() &&
             static_cast<int>(members.size()) < config_.batch) {
        members.push_back(queue.front());
        queue.pop_front();
      }
      batches.push_back(std::move(members));
    }
    std::vector<std::uint64_t> seeds(batches.size());
    std::vector<Clock::time_point> completed(batches.size());
    for (std::size_t i = 0; i < batches.size(); ++i) {
      seeds[i] = derive_cell_seed(config_.seed ^ kOpenLoopSalt,
                                  open_batches + i);
    }
    open_batches += batches.size();
    runner.pool().for_each(
        batches.size(),
        [&](std::size_t i) {
          std::vector<std::int64_t> commands;
          commands.reserve(batches[i].size());
          for (const Pending& pending : batches[i]) {
            commands.push_back(gen.command(pending.id));
          }
          run_commands(commands, seeds[i]);
          completed[i] = Clock::now();
        },
        1);
    for (std::size_t i = 0; i < batches.size(); ++i) {
      for (const Pending& pending : batches[i]) {
        latency_us.push_back(
            std::chrono::duration_cast<std::chrono::microseconds>(
                completed[i] - pending.enqueued)
                .count());
      }
      out.served += static_cast<std::int64_t>(batches[i].size());
    }
  }

  out.unserved = static_cast<std::int64_t>(queue.size());
  out.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  out.qps_achieved = out.wall_seconds > 0.0
                         ? static_cast<double>(out.served) /
                               out.wall_seconds
                         : 0.0;
  out.slo = compute_slo(latency_us, config_.open_slo_latency_us,
                        config_.slo_target);

  if (json != nullptr) {
    // Every key carries a "wall"/"seconds" substring on purpose: open
    // loop is wall-clock territory, so the is_timing_key rule excludes
    // all of it from determinism diffs and shard merges.
    json->section(
        "open_loop", static_cast<std::size_t>(out.served),
        out.wall_seconds,
        {{"offered_wall", static_cast<double>(out.offered)},
         {"served_wall", static_cast<double>(out.served)},
         {"shed_wall", static_cast<double>(out.shed)},
         {"unserved_wall", static_cast<double>(out.unserved)},
         {"qps_target_wall", out.qps_target},
         {"qps_achieved_wall", out.qps_achieved},
         {"latency_p50_seconds", out.slo.p50 * 1e-6},
         {"latency_p99_seconds", out.slo.p99 * 1e-6},
         {"latency_p999_seconds", out.slo.p999 * 1e-6},
         {"latency_max_seconds", out.slo.max * 1e-6},
         {"slo_violations_wall",
          static_cast<double>(out.slo.violations)},
         {"error_budget_burn_wall", out.slo.error_budget_burn}});
  }
  return out;
}

}  // namespace setlib::core
