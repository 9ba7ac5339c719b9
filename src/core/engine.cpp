#include "src/core/engine.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>

#include "src/agreement/kset.h"
#include "src/agreement/multishot.h"
#include "src/agreement/trivial.h"
#include "src/agreement/validator.h"
#include "src/fd/kantiomega.h"
#include "src/fd/property.h"
#include "src/sched/analyzer.h"
#include "src/sched/enforcer.h"
#include "src/sched/families.h"
#include "src/sched/reactive.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"
#include "src/util/assert.h"

namespace setlib::core {

namespace {

struct FamilySetup {
  std::unique_ptr<sched::ScheduleGenerator> generator;
  sched::CrashPlan plan;
  ProcSet timely_set;
  ProcSet observed_set;
  // Reactive families only: the feed the simulator publishes into and
  // the generator (owned by `generator`) whose crash decisions the
  // simulator mirrors.
  std::shared_ptr<sched::ObservationFeed> feed;
  sched::ReactiveGenerator* reactive = nullptr;

  explicit FamilySetup(int n) : plan(n) {}
};

FamilySetup make_friendly(const RunConfig& cfg) {
  const int n = cfg.spec.n;
  FamilySetup setup(n);
  setup.timely_set = ProcSet::range(0, cfg.system.i);
  setup.observed_set = ProcSet::range(0, cfg.system.j);
  if (cfg.crashes) setup.plan = *cfg.crashes;  // else none, as constructed
  SETLIB_EXPECTS(setup.plan.n() == n);
  auto base =
      std::make_unique<sched::UniformRandomGenerator>(n, cfg.seed);
  std::vector<sched::TimelinessConstraint> constraints;
  constraints.emplace_back(setup.timely_set, setup.observed_set,
                           cfg.timeliness_bound);
  setup.generator = std::make_unique<sched::EnforcedGenerator>(
      std::move(base), std::move(constraints), setup.plan);
  return setup;
}

FamilySetup make_rotisserie(const RunConfig& cfg) {
  const int n = cfg.spec.n;
  FamilySetup setup(n);
  const int gap = cfg.system.j - cfg.system.i;
  const int crash_count = std::min(gap, cfg.spec.t);
  SETLIB_EXPECTS(crash_count == gap);  // j - i > t cells use the
                                       // friendly family instead
  const ProcSet crashed = ProcSet::range(n - crash_count, n);
  const ProcSet live = crashed.complement(n);
  SETLIB_ASSERT(live.size() >= cfg.system.i);
  setup.plan = sched::CrashPlan::at(n, crashed, 0);
  // P = first i live processes; Q = P plus the crashed processes. The
  // only Q members that ever step are P members, so P is timely w.r.t.
  // Q with bound 1: the schedule is in S^i_{j,n} by construction.
  ProcSet p;
  for (Pid x : live.to_vector()) {
    if (p.size() < cfg.system.i) p = p.with(x);
  }
  setup.timely_set = p;
  setup.observed_set = p | crashed;
  SETLIB_ASSERT(setup.observed_set.size() == cfg.system.j);
  setup.generator = std::make_unique<sched::RotatingStarverGenerator>(
      n, live, ProcSet(), cfg.rotisserie_growth);
  return setup;
}

FamilySetup make_starver(const RunConfig& cfg) {
  const int n = cfg.spec.n;
  FamilySetup setup(n);
  // All processes stay correct; starvation rotates over k-subsets. The
  // witness pair: any i > k processes always include an active one, so
  // P = first i pids is timely w.r.t. anything, in particular the first
  // j pids.
  setup.timely_set = ProcSet::range(0, cfg.system.i);
  setup.observed_set = ProcSet::range(0, cfg.system.j);
  setup.generator = std::make_unique<sched::KSubsetStarverGenerator>(
      n, ProcSet::universe(n), cfg.spec.k, cfg.rotisserie_growth);
  return setup;
}

sched::FamilyParams randomized_params(const RunConfig& cfg) {
  sched::FamilyParams params;
  params.n = cfg.spec.n;
  params.scale = cfg.adversary_scale;
  // Crash-prone stays inside the spec's resilience budget, so the
  // validator's termination clause still quantifies over a legal
  // faulty set; crash steps and the GST switch scale with the run so
  // both eras are actually exercised.
  params.crash_count = std::min(cfg.spec.t, cfg.spec.n - 1);
  params.crash_horizon = std::max<std::int64_t>(1, cfg.max_steps / 2);
  params.gst = std::max<std::int64_t>(1, cfg.max_steps / 8);
  return params;
}

FamilySetup make_randomized(const RunConfig& cfg) {
  const int n = cfg.spec.n;
  FamilySetup setup(n);
  // The canonical witness pair: these families promise nothing about
  // S^i_{j,n} membership, so the measured witness_bound on
  // (range(0,i), range(0,j)) is the observable — the frontier bench
  // maps it per family.
  setup.timely_set = ProcSet::range(0, cfg.system.i);
  setup.observed_set = ProcSet::range(0, cfg.system.j);
  const sched::FamilyParams params = randomized_params(cfg);
  const sched::FamilyKind kind = [&] {
    switch (cfg.family) {
      case ScheduleFamily::kBursty:
        return sched::FamilyKind::kBursty;
      case ScheduleFamily::kStarvation:
        return sched::FamilyKind::kStarvation;
      case ScheduleFamily::kCrashProne:
        return sched::FamilyKind::kCrashProne;
      case ScheduleFamily::kGst:
        return sched::FamilyKind::kGst;
      default:
        SETLIB_ASSERT(false);
        return sched::FamilyKind::kBursty;
    }
  }();
  if (kind == sched::FamilyKind::kCrashProne) {
    // The simulator must mirror the generator's crashes so the
    // validator sees the same faulty set; crash_prone_plan is exactly
    // the plan make_family embeds.
    setup.plan = sched::crash_prone_plan(params, cfg.seed);
  }
  setup.generator = sched::make_family(kind, params, cfg.seed);
  return setup;
}

FamilySetup make_reactive_setup(const RunConfig& cfg) {
  const int n = cfg.spec.n;
  FamilySetup setup(n);
  // Same canonical witness pair as the randomized families: reactive
  // adversaries promise nothing about S^i_{j,n} membership, the
  // measured witness_bound is the observable.
  setup.timely_set = ProcSet::range(0, cfg.system.i);
  setup.observed_set = ProcSet::range(0, cfg.system.j);
  sched::ReactiveParams params;
  params.n = n;
  params.stretch = cfg.adversary_scale;
  params.victims = 0;  // auto per kind
  // The budget-crasher may spend exactly the spec's resilience budget,
  // so the validator's termination clause still quantifies over a
  // legal faulty set.
  params.crash_budget = std::min(cfg.spec.t, n - 1);
  params.decide_threshold = cfg.stabilization_window;
  const sched::ReactiveKind kind = [&] {
    switch (cfg.family) {
      case ScheduleFamily::kWindowStretcher:
        return sched::ReactiveKind::kWindowStretcher;
      case ScheduleFamily::kDecisionChaser:
        return sched::ReactiveKind::kDecisionChaser;
      case ScheduleFamily::kBudgetCrasher:
        return sched::ReactiveKind::kBudgetCrasher;
      default:
        SETLIB_ASSERT(false);
        return sched::ReactiveKind::kWindowStretcher;
    }
  }();
  auto gen = sched::make_reactive(kind, params, cfg.seed);
  setup.reactive = gen.get();
  setup.feed = gen->feed_ptr();
  setup.generator = std::move(gen);
  return setup;
}

/// The detector's "eventually forever" verdict on a finite run:
/// fd::check_kantiomega over `correct` on a trailing window of
/// max(stabilization_window, min_iterations / 3) iterations, so slow
/// oscillation on long runs is not mistaken for convergence.
DetectorReport detector_verdict(const fd::KAntiOmega& detector,
                                ProcSet correct,
                                std::int64_t stabilization_window) {
  DetectorReport report;
  report.used = true;
  std::int64_t min_it = -1;
  std::int64_t max_it = 0;
  correct.for_each([&](Pid p) {
    const auto& v = detector.view(p);
    min_it = min_it < 0 ? v.iterations : std::min(min_it, v.iterations);
    max_it = std::max(max_it, v.iterations);
    report.total_winnerset_changes += v.winnerset_changes;
  });
  report.min_iterations = std::max<std::int64_t>(min_it, 0);
  report.max_iterations = max_it;
  const std::int64_t window =
      std::max(stabilization_window, report.min_iterations / 3);
  const auto prop = fd::check_kantiomega(detector, correct, window);
  report.stabilized = prop.stabilized;
  report.winnerset = prop.winnerset;
  report.winnerset_has_correct = prop.has_correct_winner;
  report.trusted = prop.trusted;
  report.abstract_ok = prop.abstract_ok;
  return report;
}

}  // namespace

RunReport run_agreement(const RunConfig& cfg) {
  // One-off convenience path (tests, tools): a run-local arena with
  // the standard reserve, so the counters mean the same thing as on
  // the runner's per-worker arenas.
  util::ArenaAllocator arena;
  return run_agreement(cfg, arena);
}

RunReport run_agreement(const RunConfig& cfg, util::ArenaAllocator& arena) {
  cfg.spec.validate();
  cfg.system.validate();
  SETLIB_EXPECTS(cfg.spec.n == cfg.system.n);
  SETLIB_EXPECTS(cfg.max_steps > 0);
  const int n = cfg.spec.n;
  const int k = cfg.spec.k;
  const int t = cfg.spec.t;

  const bool multishot = !cfg.slot_commands.empty();
  SETLIB_EXPECTS(!multishot || (k <= t && cfg.proposals.empty()));
  // A multi-shot run proposes its slot commands: it builds no
  // per-process proposals.
  std::vector<std::int64_t> proposals;
  if (!multishot) {
    proposals = cfg.proposals;
    if (proposals.empty()) {
      for (Pid p = 0; p < n; ++p) proposals.push_back(100 + p);
    }
    SETLIB_EXPECTS(proposals.size() == static_cast<std::size_t>(n));
  }

  FamilySetup setup = [&] {
    switch (cfg.family) {
      case ScheduleFamily::kEnforcedRandom:
        return make_friendly(cfg);
      case ScheduleFamily::kRotisserie:
        return make_rotisserie(cfg);
      case ScheduleFamily::kKSubsetStarver:
        return make_starver(cfg);
      case ScheduleFamily::kBursty:
      case ScheduleFamily::kStarvation:
      case ScheduleFamily::kCrashProne:
      case ScheduleFamily::kGst:
        return make_randomized(cfg);
      case ScheduleFamily::kWindowStretcher:
      case ScheduleFamily::kDecisionChaser:
      case ScheduleFamily::kBudgetCrasher:
        return make_reactive_setup(cfg);
    }
    SETLIB_ASSERT(false);
    return make_friendly(cfg);
  }();

  shm::SimMemory mem;
  shm::Simulator sim(mem, n);
  sim.use_crash_plan(setup.plan);
  if (setup.feed != nullptr) sim.publish_observations(setup.feed.get());
  if (setup.reactive != nullptr) {
    // Mirror the adversary's budget spending into the simulator so the
    // crashed processes actually stop and the validator's faulty set
    // matches crashes_requested().
    sim.use_crash_source(
        [r = setup.reactive] { return r->crashes_requested(); });
  }

  RunReport report;
  report.timely_set = setup.timely_set;
  report.observed_set = setup.observed_set;
  report.decisions.resize(multishot ? cfg.slot_commands.size()
                                    : static_cast<std::size_t>(n));

  const ProcSet planned_correct = setup.plan.faulty().complement(n);

  // Runs until every correct process decided or the budget is spent.
  // Each stop check (every 64 steps) publishes decision proximity for
  // reactive adversaries: decided flags and detector iterations.
  const auto run = [&](const auto& decided, const fd::KAntiOmega* detector) {
    const auto stop = [&] {
      if (setup.feed != nullptr) {
        for (Pid p = 0; p < n; ++p) {
          if (detector != nullptr) {
            setup.feed->publish_progress(p, detector->view(p).iterations);
          }
          if (decided(p)) setup.feed->publish_decided(p);
        }
      }
      if (cfg.run_full_budget) return false;
      bool all = true;
      sim.crashed_set().complement(n).for_each(
          [&](Pid p) { all = all && decided(p); });
      return all;
    };
    // Through std::ref: a std::function holding a reference_wrapper
    // stores it in place, while these captures would take a heap box.
    report.steps_executed =
        sim.run_until(*setup.generator, cfg.max_steps, std::ref(stop));
  };
  agreement::AgreementVerdict verdict;  // the multi-shot fold fills it

  if (k > t) {
    // Corollary 25's trivial regime: solvable under full asynchrony.
    report.algorithm = "trivial";
    agreement::TrivialAgreement algo(mem, n, t);
    std::vector<agreement::TrivialAgreement::Outcome> outs(
        static_cast<std::size_t>(n));
    for (Pid p = 0; p < n; ++p) {
      sim.process(p).add_task(
          algo.run(p, proposals[static_cast<std::size_t>(p)],
                   &outs[static_cast<std::size_t>(p)]),
          "trivial");
    }
    run([&](Pid p) { return outs[static_cast<std::size_t>(p)].decided; },
        nullptr);
    for (Pid p = 0; p < n; ++p) {
      if (outs[static_cast<std::size_t>(p)].decided) {
        report.decisions[static_cast<std::size_t>(p)] =
            outs[static_cast<std::size_t>(p)].value;
      }
    }
  } else {
    fd::KAntiOmega detector(mem, fd::KAntiOmega::Params{n, k, t, 1});
    if (!multishot) {
      report.algorithm = "kanti-omega+paxos";
      agreement::KSetAgreement kset(
          mem, agreement::KSetAgreement::Params{n, k, t}, &detector);
      for (Pid p = 0; p < n; ++p) {
        sim.process(p).add_task(detector.run(p), "kanti-omega");
        kset.install(sim.process(p), p,
                     proposals[static_cast<std::size_t>(p)]);
      }
      run([&](Pid p) { return kset.decided(p); }, &detector);
      for (Pid p = 0; p < n; ++p) {
        if (kset.decided(p)) {
          report.decisions[static_cast<std::size_t>(p)] =
              kset.outcome(p).value;
        }
      }
    } else {
      report.algorithm = "kanti-omega+multishot";
      const std::vector<std::int64_t>& commands = cfg.slot_commands;
      const int slots = static_cast<int>(commands.size());
      agreement::MultiShotAgreement log(
          mem, agreement::MultiShotAgreement::Params{n, k, t, slots},
          &detector);
      for (Pid p = 0; p < n; ++p) {
        sim.process(p).add_task(detector.run(p), "kanti-omega");
        log.install(sim.process(p), p, commands);
      }
      run([&](Pid p) { return log.decided_prefix(p) == slots; }, &detector);
      // The Section 3 properties per slot, read off the decision
      // tallies. The command is the only value any process proposes
      // for its slot, so it is the only valid decision.
      verdict.agreement_ok = verdict.validity_ok = true;
      for (int s = 0; s < slots; ++s) {
        const auto tally = log.slot_tally(s, ProcSet::universe(n));
        const bool decided_command =
            tally.distinct == 1 &&
            tally.smallest == commands[static_cast<std::size_t>(s)];
        verdict.distinct_values =
            std::max(verdict.distinct_values, tally.distinct);
        verdict.agreement_ok = verdict.agreement_ok && tally.distinct <= k;
        verdict.validity_ok =
            verdict.validity_ok && (tally.distinct == 0 || decided_command);
        if (tally.distinct > 0) {
          report.decisions[static_cast<std::size_t>(s)] = tally.smallest;
        }
      }
      verdict.termination_ok =
          log.all_decided(sim.crashed_set().complement(n));
      verdict.ok =
          verdict.termination_ok && verdict.agreement_ok && verdict.validity_ok;
      verdict.detail = "slots=" + std::to_string(slots);
    }
    report.detector = detector_verdict(
        detector, sim.crashed_set().complement(n), cfg.stabilization_window);
  }

  report.faulty = sim.crashed_set();
  const ProcSet allowed_faulty =
      planned_correct.complement(n) |
      (setup.reactive != nullptr ? setup.reactive->crashes_requested()
                                 : ProcSet());
  SETLIB_ASSERT(report.faulty.subset_of(allowed_faulty));

  if (!multishot) {
    verdict = agreement::validate_agreement(t, k, n, proposals,
                                            report.decisions, report.faulty);
  }
  report.terminated = verdict.termination_ok;
  report.agreement_ok = verdict.agreement_ok;
  report.validity_ok = verdict.validity_ok;
  report.distinct_decisions = verdict.distinct_values;
  report.success = verdict.ok;

  {
    // Analysis phase: pack the executed schedule once on the cell
    // arena and run the witness check on the packed form; the replay
    // hash was streamed by the simulator as the steps ran. The counter
    // deltas across this frame are the run's allocation account —
    // zero when the packed words + scan scratch fit the reserve.
    const std::int64_t allocs_before = arena.allocs();
    const std::int64_t bytes_before = arena.bytes();
    const util::FrameScope frame(arena);
    const sched::PackedSchedule packed(sim.executed(), arena);
    report.witness_bound =
        packed.bound_for(setup.timely_set, setup.observed_set);
    report.schedule_hash = sim.executed_hash();
    report.allocs_per_op = arena.allocs() - allocs_before;
    report.bytes_per_op = arena.bytes() - bytes_before;
  }

  std::string& detail = report.detail;
  detail.reserve(verdict.detail.size() + 96);
  detail += verdict.detail;
  detail += " steps=";
  detail += std::to_string(report.steps_executed);
  detail += " witness_bound=";
  detail += std::to_string(report.witness_bound);
  if (report.detector.used) {
    detail += " detector=";
    detail += report.detector.stabilized ? "stable" : "oscillating";
    if (report.detector.stabilized) {
      detail += " winnerset=";
      detail += report.detector.winnerset.to_string();
    }
  }
  return report;
}

}  // namespace setlib::core
