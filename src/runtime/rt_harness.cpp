#include "src/runtime/rt_harness.h"

#include <algorithm>
#include <sstream>

#include "src/agreement/kset.h"
#include "src/agreement/validator.h"
#include "src/fd/kantiomega.h"
#include "src/fd/property.h"
#include "src/runtime/executor.h"
#include "src/runtime/pacer.h"
#include "src/sched/analyzer.h"
#include "src/util/assert.h"

namespace setlib::runtime {

RtRunReport run_kset_threaded(const RtRunConfig& cfg) {
  SETLIB_EXPECTS(cfg.n >= 2 && cfg.n <= kMaxProcs);
  SETLIB_EXPECTS(cfg.k >= 1 && cfg.k <= cfg.n - 1);
  SETLIB_EXPECTS(cfg.t >= 1 && cfg.t <= cfg.n - 1);
  SETLIB_EXPECTS(cfg.k <= cfg.t);
  SETLIB_EXPECTS(cfg.crash_count >= 0 && cfg.crash_count <= cfg.t);
  // The pacer's timely set (first k pids) must stay alive under the
  // tail-crash pattern; explicit injections may crash anyone but must
  // leave at least one process running.
  SETLIB_EXPECTS(cfg.crash_count <= cfg.n - cfg.k);
  SETLIB_EXPECTS(cfg.crashes.size() < static_cast<std::size_t>(cfg.n));

  const int n = cfg.n;
  std::vector<std::int64_t> proposals = cfg.proposals;
  if (proposals.empty()) {
    for (Pid p = 0; p < n; ++p) proposals.push_back(100 + p);
  }
  SETLIB_EXPECTS(proposals.size() == static_cast<std::size_t>(n));

  shm::SimMemory mem;
  fd::KAntiOmega detector(mem,
                          fd::KAntiOmega::Params{n, cfg.k, cfg.t, 1});
  agreement::KSetAgreement kset(
      mem, agreement::KSetAgreement::Params{n, cfg.k, cfg.t}, &detector);

  ThreadedExecutor executor(mem, n);
  for (Pid p = 0; p < n; ++p) {
    executor.process(p).add_task(detector.run(p), "kanti-omega");
    kset.install(executor.process(p), p,
                 proposals[static_cast<std::size_t>(p)]);
  }
  if (!cfg.crashes.empty()) {
    for (const auto& [pid, ops] : cfg.crashes) {
      executor.crash_after(pid, ops);
    }
  } else {
    for (int c = 0; c < cfg.crash_count; ++c) {
      executor.crash_after(n - 1 - c, cfg.crash_ops);
    }
  }

  const ProcSet p_set = ProcSet::range(0, cfg.k);
  const ProcSet q_set = ProcSet::range(0, std::min(cfg.t + 1, n));
  std::vector<sched::TimelinessConstraint> constraints;
  constraints.emplace_back(p_set, q_set, cfg.bound);
  Pacer pacer(n, std::move(constraints));

  ThreadedExecutor::Options options;
  options.max_ops_per_process = cfg.max_ops_per_process;
  options.max_wall = cfg.max_wall;
  options.local_done = [&kset](Pid p) { return kset.decided(p); };
  const auto stats = executor.run(pacer, options);

  RtRunReport report;
  report.all_done = stats.all_done;
  report.elapsed = stats.elapsed;
  report.faulty = executor.crashed();
  report.dropped_constraints = pacer.dropped_constraints();
  // A dropped constraint means its whole timely set crashed (possibly
  // before ever reaching the pacer): from that serialized step on, no
  // timeliness was enforced, so the paced-run stats cut at the drop —
  // otherwise a run whose pacing died at step 0 would report the
  // entire unpaced tail as pacer_steps and measure a meaningless
  // (divergent) witness bound on it.
  const std::optional<std::int64_t> drop = pacer.first_drop_step();
  report.pacer_steps = drop.value_or(pacer.steps_taken());

  report.decisions.assign(static_cast<std::size_t>(n), std::nullopt);
  for (Pid p = 0; p < n; ++p) {
    if (kset.decided(p)) {
      report.decisions[static_cast<std::size_t>(p)] = kset.outcome(p).value;
    }
  }
  const auto verdict = agreement::validate_agreement(
      cfg.t, cfg.k, n, proposals, report.decisions, report.faulty);
  report.success = verdict.ok;
  report.distinct_decisions = verdict.distinct_values;

  const ProcSet correct = report.faulty.complement(n);
  const auto prop = fd::check_kantiomega(detector, correct, /*window=*/4);
  report.detector_stabilized = prop.stabilized;
  report.detector_abstract_ok = prop.abstract_ok;

  report.detector_iterations.reserve(static_cast<std::size_t>(n));
  for (Pid p = 0; p < n; ++p) {
    report.detector_iterations.push_back(detector.view(p).iterations);
  }

  report.schedule = pacer.recorded_schedule();
  const std::int64_t paced =
      std::min<std::int64_t>(report.pacer_steps, report.schedule.size());
  report.witness_bound =
      paced == 0 ? 0
                 : sched::min_timeliness_bound(report.schedule, p_set,
                                               q_set, 0, paced);
  std::ostringstream os;
  os << verdict.detail << " pacer_steps=" << report.pacer_steps
     << " witness_bound=" << report.witness_bound
     << " elapsed_ms=" << report.elapsed.count();
  report.detail = os.str();
  // The stack's references to mem go unused from here on.
  report.memory = std::move(mem);
  return report;
}

}  // namespace setlib::runtime
