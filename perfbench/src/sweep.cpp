// sweep_adversaries: ExperimentRunner::run over a SweepGrid spanning
// every ScheduleFamily with repeats, streamed into a JsonSink.
//
// The grid is 10 families x kRepeats cells of one spec in its matching
// system; one interval runs the whole grid once and renders the JSON
// document. Every interval runs the same grid, so intervals differ only
// by host noise.
//
// Throughput counts cells. The latency op is one round: the cells of
// one repeat index, one per family, with their fast ends summed. Single
// cells fall into per-family cost clusters, so per-cell percentiles sat
// on cluster edges and jumped between clusters from seed to seed; every
// round holds one cell of each family, so round latencies spread
// smoothly.
#include <memory>
#include <optional>

#include "checks.h"
#include "probes.h"
#include "src/agreement/kset.h"
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

namespace perfbench {

namespace core = setlib::core;
namespace sched = setlib::sched;
using setlib::Pid;
using setlib::ProcSet;

namespace {

constexpr core::AgreementSpec kSpec{2, 1, 5};  // (t, k, n)
// Repeats per family, and so rounds per grid: 100 rounds leave 10 beyond
// the p90.
constexpr int kRepeats = 100;
constexpr std::int64_t kMaxSteps = 5000;

core::SweepGrid make_grid(std::uint64_t seed) {
  core::SweepGrid grid;
  grid.add_spec(kSpec)
      .add_family(core::ScheduleFamily::kEnforcedRandom)
      .add_family(core::ScheduleFamily::kRotisserie)
      .add_family(core::ScheduleFamily::kKSubsetStarver);
  for (const core::ScheduleFamily family : core::randomized_families()) {
    grid.add_family(family);
  }
  for (const core::ScheduleFamily family : core::reactive_families()) {
    grid.add_family(family);
  }
  core::RunConfig prototype;
  prototype.max_steps = kMaxSteps;
  grid.repeats(kRepeats).base_seed(seed).prototype(prototype);
  return grid;
}

struct SweepSetup {
  std::unique_ptr<core::ExperimentRunner> runner;
  core::SweepGrid grid;
};

struct CellRecord {
  std::uint64_t hash = 0;
  std::int64_t steps = 0;
  std::int64_t allocs = 0;
  bool success = false;
  bool detector_used = false;
  bool detector_ok = false;
  double seconds = 0.0;
};

/// Keeps the per-cell rows and counts failed cells.
class CellSink final : public core::ReportSink {
 public:
  void cell(const core::SweepCell& cell, const core::RunReport& report,
            double seconds) override {
    rows.push_back(CellRecord{report.schedule_hash, report.steps_executed,
                              report.allocs_per_op, report.success,
                              report.detector.used,
                              report.detector.abstract_ok, seconds});
    if (cell_failed(cell.config.family, report)) ++failed;
  }
  std::vector<CellRecord> rows;
  std::int64_t failed = 0;
};

struct Adversary {
  std::unique_ptr<sched::ScheduleGenerator> generator;
  sched::CrashPlan plan;
  ProcSet timely;
  ProcSet observed;
  sched::ReactiveGenerator* reactive = nullptr;
};

/// The schedule side of run_agreement for one family, from the
/// registries' public factories.
Adversary make_adversary(const core::RunConfig& cfg) {
  const int n = cfg.spec.n;
  Adversary a{nullptr, sched::CrashPlan::none(n),
              ProcSet::range(0, cfg.system.i), ProcSet::range(0, cfg.system.j),
              nullptr};
  sched::FamilyParams params;
  params.n = n;
  params.scale = cfg.adversary_scale;
  params.crash_count = std::min(cfg.spec.t, n - 1);
  params.crash_horizon = std::max<std::int64_t>(1, cfg.max_steps / 2);
  params.gst = std::max<std::int64_t>(1, cfg.max_steps / 8);
  sched::ReactiveParams reactive;
  reactive.n = n;
  reactive.stretch = cfg.adversary_scale;
  reactive.crash_budget = std::min(cfg.spec.t, n - 1);
  reactive.decide_threshold = cfg.stabilization_window;
  const auto make_reactive = [&](sched::ReactiveKind kind) {
    auto gen = sched::make_reactive(kind, reactive, cfg.seed);
    a.reactive = gen.get();
    a.generator = std::move(gen);
  };

  switch (cfg.family) {
    case core::ScheduleFamily::kEnforcedRandom: {
      std::vector<sched::TimelinessConstraint> constraints;
      constraints.emplace_back(a.timely, a.observed, cfg.timeliness_bound);
      a.generator = std::make_unique<sched::EnforcedGenerator>(
          std::make_unique<sched::UniformRandomGenerator>(n, cfg.seed),
          std::move(constraints), a.plan);
      break;
    }
    case core::ScheduleFamily::kRotisserie: {
      const int crashes = cfg.system.j - cfg.system.i;
      const ProcSet crashed = ProcSet::range(n - crashes, n);
      const ProcSet live = crashed.complement(n);
      a.plan = sched::CrashPlan::at(n, crashed, 0);
      ProcSet p;
      for (const Pid x : live.to_vector()) {
        if (p.size() < cfg.system.i) p = p.with(x);
      }
      a.timely = p;
      a.observed = p | crashed;
      a.generator = std::make_unique<sched::RotatingStarverGenerator>(
          n, live, ProcSet(), cfg.rotisserie_growth);
      break;
    }
    case core::ScheduleFamily::kKSubsetStarver:
      a.generator = std::make_unique<sched::KSubsetStarverGenerator>(
          n, ProcSet::universe(n), cfg.spec.k, cfg.rotisserie_growth);
      break;
    case core::ScheduleFamily::kBursty:
      a.generator = sched::make_family(sched::FamilyKind::kBursty, params,
                                       cfg.seed);
      break;
    case core::ScheduleFamily::kStarvation:
      a.generator = sched::make_family(sched::FamilyKind::kStarvation, params,
                                       cfg.seed);
      break;
    case core::ScheduleFamily::kCrashProne:
      a.plan = sched::crash_prone_plan(params, cfg.seed);
      a.generator = sched::make_family(sched::FamilyKind::kCrashProne, params,
                                       cfg.seed);
      break;
    case core::ScheduleFamily::kGst:
      a.generator =
          sched::make_family(sched::FamilyKind::kGst, params, cfg.seed);
      break;
    case core::ScheduleFamily::kWindowStretcher:
      make_reactive(sched::ReactiveKind::kWindowStretcher);
      break;
    case core::ScheduleFamily::kDecisionChaser:
      make_reactive(sched::ReactiveKind::kDecisionChaser);
      break;
    case core::ScheduleFamily::kBudgetCrasher:
      make_reactive(sched::ReactiveKind::kBudgetCrasher);
      break;
  }
  return a;
}

struct Replayed {
  std::uint64_t hash = 0;
  std::int64_t steps = 0;
  bool success = false;
};

/// run_agreement rebuilt layer by layer: adversary, Simulator on
/// SimMemory, detector + k-set agreement (or the trivial algorithm),
/// property check, validator, pack, bound, hash.
Replayed replay_cell(const core::RunConfig& cfg, LayerTally& tally) {
  const int n = cfg.spec.n;
  const int k = cfg.spec.k;
  const int t = cfg.spec.t;
  std::vector<std::int64_t> proposals;
  for (Pid p = 0; p < n; ++p) proposals.push_back(100 + p);

  Adversary adversary = make_adversary(cfg);
  TimedGenerator timed(*adversary.generator);
  setlib::shm::SimMemory mem;
  setlib::shm::Simulator sim(mem, n);
  sim.use_crash_plan(adversary.plan);
  if (adversary.reactive != nullptr) {
    sim.publish_observations(adversary.reactive->feed_ptr().get());
    sim.use_crash_source(
        [r = adversary.reactive] { return r->crashes_requested(); });
  }
  sched::ObservationFeed* feed =
      adversary.reactive != nullptr ? adversary.reactive->feed_ptr().get()
                                    : nullptr;

  std::vector<std::optional<std::int64_t>> decisions(
      static_cast<std::size_t>(n));
  Replayed out;
  const std::int64_t reg_before = mem.read_count() + mem.write_count();
  if (k > t) {
    setlib::agreement::TrivialAgreement algo(mem, n, t);
    std::vector<setlib::agreement::TrivialAgreement::Outcome> outs(
        static_cast<std::size_t>(n));
    for (Pid p = 0; p < n; ++p) {
      sim.process(p).add_task(
          algo.run(p, proposals[static_cast<std::size_t>(p)],
                   &outs[static_cast<std::size_t>(p)]),
          "trivial");
    }
    const auto done = [&] {
      if (feed != nullptr) {
        for (Pid p = 0; p < n; ++p) {
          if (outs[static_cast<std::size_t>(p)].decided) {
            feed->publish_decided(p);
          }
        }
      }
      for (const Pid p : sim.crashed_set().complement(n).to_vector()) {
        if (!outs[static_cast<std::size_t>(p)].decided) return false;
      }
      return true;
    };
    const Stopwatch watch;
    out.steps = sim.run_until(timed, cfg.max_steps, done);
    tally.sim_ns += watch.nanoseconds();
    for (Pid p = 0; p < n; ++p) {
      const auto& o = outs[static_cast<std::size_t>(p)];
      if (o.decided) decisions[static_cast<std::size_t>(p)] = o.value;
    }
  } else {
    setlib::fd::KAntiOmega detector(
        mem, setlib::fd::KAntiOmega::Params{n, k, t, 1});
    setlib::agreement::KSetAgreement kset(
        mem, setlib::agreement::KSetAgreement::Params{n, k, t}, &detector);
    for (Pid p = 0; p < n; ++p) {
      sim.process(p).add_task(detector.run(p), "kanti-omega");
      kset.install(sim.process(p), p, proposals[static_cast<std::size_t>(p)]);
    }
    const auto done = [&] {
      if (feed != nullptr) {
        for (Pid p = 0; p < n; ++p) {
          feed->publish_progress(p, detector.view(p).iterations);
          if (kset.decided(p)) feed->publish_decided(p);
        }
      }
      return kset.all_decided(sim.crashed_set().complement(n));
    };
    {
      const Stopwatch watch;
      out.steps = sim.run_until(timed, cfg.max_steps, done);
      tally.sim_ns += watch.nanoseconds();
    }
    for (Pid p = 0; p < n; ++p) {
      if (kset.decided(p)) {
        decisions[static_cast<std::size_t>(p)] = kset.outcome(p).value;
      }
    }
    const ProcSet correct = sim.crashed_set().complement(n);
    std::int64_t min_it = -1;
    for (const Pid p : correct.to_vector()) {
      const std::int64_t it = detector.view(p).iterations;
      tally.iterations += it;
      min_it = min_it < 0 ? it : std::min(min_it, it);
    }
    const std::int64_t window = std::max(
        cfg.stabilization_window, std::max<std::int64_t>(min_it, 0) / 3);
    const Stopwatch watch;
    setlib::fd::check_kantiomega(detector, correct, window);
    tally.check_ns += watch.nanoseconds();
    ++tally.detector_runs;
  }
  tally.reg_ops += mem.read_count() + mem.write_count() - reg_before;
  tally.gen_ns += timed.ns();
  tally.pulls += timed.pulls();
  tally.steps += out.steps;

  {
    const Stopwatch watch;
    out.success = setlib::agreement::validate_agreement(
                      t, k, n, proposals, decisions, sim.crashed_set())
                      .ok;
    tally.validate_ns += watch.nanoseconds();
    ++tally.validates;
  }
  {
    const Stopwatch watch;
    const sched::PackedSchedule packed(sim.executed());
    tally.pack_ns += watch.nanoseconds();
    ++tally.packs;
    const Stopwatch bound_watch;
    packed.bound_for(adversary.timely, adversary.observed);
    tally.bound_ns += bound_watch.nanoseconds();
    ++tally.bounds;
  }
  {
    const Stopwatch watch;
    out.hash = sched::schedule_hash(sim.executed());
    tally.hash_ns += watch.nanoseconds();
    ++tally.hashes;
  }
  ++tally.ops;
  return out;
}

}  // namespace

RunResult run_sweep(const RunOptions& options) {
  const auto set_up = [&] {
    SweepSetup built{make_runner("perfbench_sweep", options.width),
                     make_grid(options.seed)};
    built.grid.size();  // memoizes the grid's point table
    return built;
  };
  RunResult out;
  std::optional<SweepSetup> setup(timed_setup(set_up, out.setup_s));
  const std::size_t cells = setup->grid.size();
  CellSink sink;
  sink.rows.reserve(cells);
  core::JsonSink::Config json_config;
  json_config.name = "perfbench_sweep";
  json_config.threads = options.width;
  double busy_s = 0.0;
  double wall_s = 0.0;
  HeapCount heap;
  std::int64_t sink_rows = 0;
  std::int64_t sink_ns = 0;
  std::int64_t detector_runs = 0;
  std::int64_t detector_ok = 0;
  std::int64_t arena_allocs = 0;
  std::int64_t ops = 0;
  out.ops.resize(cells);
  // Cell c is repeat c % kRepeats: the repeat axis is the grid's innermost.
  out.rounds = static_cast<std::size_t>(kRepeats);
  out.intervals = run_intervals(options.seconds, [&](bool timed) {
    sink.rows.clear();
    sink.failed = 0;
    const Stopwatch watch;
    {
      const HeapScope scope(options.trace, heap);
      core::JsonSink json(json_config);
      TimedSink timed_json(json);
      std::vector<core::ReportSink*> sinks{&sink};
      sinks.push_back(options.trace ? static_cast<core::ReportSink*>(&timed_json)
                                    : &json);
      try {
        setup->runner->run(setup->grid, "sweep_adversaries", sinks);
        json.render();
      } catch (const std::exception& e) {
        // A throwing cell loses the whole grid run: count every cell.
        sink.failed = static_cast<std::int64_t>(cells);
        out.detail = e.what();
      }
      sink_rows += timed_json.rows();
      sink_ns += timed_json.ns();
    }
    const double wall = watch.seconds();
    out.attempted += static_cast<std::int64_t>(cells);
    out.failed += sink.failed;
    for (std::size_t c = 0; c < sink.rows.size(); ++c) {
      const CellRecord& row = sink.rows[c];
      if (timed) out.ops[c].add(row.seconds);
      busy_s += row.seconds;
      if (row.detector_used) {
        ++detector_runs;
        detector_ok += row.detector_ok ? 1 : 0;
      }
      arena_allocs += row.allocs;
    }
    wall_s += wall;
    ops += static_cast<std::int64_t>(sink.rows.size());
    return Interval{static_cast<double>(cells), wall};
  }, [&] {
    setup.reset();  // teardown stays outside the timed set-up
    setup.emplace(timed_setup(set_up, out.setup_s));
  });
  if (!options.trace) return out;
  const core::SweepGrid& grid = setup->grid;

  // Traced: time each cell through run_agreement, then replay it layer
  // by layer; both must reproduce the timed run's schedule hash.
  LayerTally tally;
  std::vector<double> cell_ms;
  setlib::util::ArenaAllocator arena;
  for (std::size_t c = 0; c < cells && c < sink.rows.size(); ++c) {
    const core::SweepCell cell = grid.cell(c);
    arena.reset();
    const Stopwatch watch;
    const core::RunReport report = core::run_agreement(cell.config, arena);
    cell_ms.push_back(watch.seconds() * 1e3);
    const Replayed replay = replay_cell(cell.config, tally);
    const CellRecord& timed = sink.rows[c];
    if ((replay.hash != timed.hash || report.schedule_hash != timed.hash ||
         replay.steps != timed.steps || replay.success != timed.success) &&
        out.replay_ok) {
      out.replay_ok = false;
      out.detail = "sweep replay diverged at cell " + std::to_string(c) +
                   " (" + core::family_name(cell.config.family) + ")";
    }
  }
  if (sink.rows.size() != cells) out.replay_ok = false;

  out.layers["core.engine.cell_ms_p50"] = median(cell_ms);
  out.layers["core.report.sink_us_per_row"] = per(sink_ns, sink_rows) * 1e-3;
  out.layers["runtime.pool.idle_frac"] =
      idle_fraction(busy_s, wall_s, options.width);
  out.layers["fd.detector_ok_frac"] = per(detector_ok, detector_runs);
  out.layers["util.arena.allocs_per_op"] = per(arena_allocs, ops);
  report_layers(tally, heap, ops, out);
  return out;
}

}  // namespace perfbench
