// serve_closed: closed-loop serving through ServiceHarness.
//
// One interval is one run_closed_loop call over a seeded LoadGen stream
// of kRequests requests (about 300 batches at the default arrival
// rate); the op whose latency is timed is one batch, the op counted by
// throughput is one request. Every interval serves the same stream, so
// intervals differ only by host noise.
#include <memory>
#include <optional>

#include "checks.h"
#include "probes.h"
#include "src/agreement/multishot.h"
#include "src/fd/kantiomega.h"
#include "src/fd/property.h"
#include "src/sched/analyzer.h"
#include "src/sched/enforcer.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"

namespace perfbench {

namespace core = setlib::core;
namespace sched = setlib::sched;
using setlib::Pid;
using setlib::ProcSet;

namespace {

// About 300 batches of the default config's ~28 requests.
constexpr std::int64_t kRequests = 8400;

struct ServeSetup {
  std::unique_ptr<core::ExperimentRunner> runner;
  core::ServiceHarness harness;
  core::AdmissionPlan plan;
};

struct BatchRecord {
  std::int64_t steps = 0;
  std::int64_t witness_bound = 0;
  bool detector_ok = false;
  double seconds = 0.0;
};

/// Keeps the per-batch rows run_closed_loop streams, in batch order.
class BatchSink final : public core::ReportSink {
 public:
  void cell(const core::SweepCell&, const core::RunReport& report,
            double seconds) override {
    rows.push_back(BatchRecord{report.steps_executed, report.witness_bound,
                               report.detector.abstract_ok, seconds});
  }
  std::vector<BatchRecord> rows;
};

struct Replayed {
  std::int64_t steps = 0;
  std::int64_t witness_bound = 0;
  bool detector_ok = false;
  std::vector<std::int64_t> decisions;  // per slot, -1 = undecided
};

/// The batch engine of ServiceHarness, rebuilt layer by layer from the
/// public entry points: enforced generator, Simulator on SimMemory,
/// k-anti-Omega detector + MultiShotAgreement, property check, pack and
/// bound.
Replayed replay_batch(const core::ServiceConfig& config,
                      const std::vector<std::int64_t>& commands,
                      std::uint64_t seed, LayerTally& tally) {
  const int n = config.spec.n;
  const int k = config.spec.k;
  const int t = config.spec.t;
  const int slots = static_cast<int>(commands.size());

  setlib::shm::SimMemory mem;
  setlib::shm::Simulator sim(mem, n);
  setlib::fd::KAntiOmega detector(mem,
                                  setlib::fd::KAntiOmega::Params{n, k, t, 1});
  setlib::agreement::MultiShotAgreement log(
      mem, setlib::agreement::MultiShotAgreement::Params{n, k, t, slots},
      &detector);
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(detector.run(p), "kanti-omega");
    log.install(sim.process(p), p, commands);
  }
  const ProcSet timely = ProcSet::range(0, k);
  const ProcSet observed = ProcSet::range(0, t + 1);
  std::vector<sched::TimelinessConstraint> constraints;
  constraints.emplace_back(timely, observed, config.timeliness_bound);
  sched::EnforcedGenerator gen(
      std::make_unique<sched::UniformRandomGenerator>(n, seed),
      std::move(constraints), sched::CrashPlan::none(n));
  TimedGenerator timed(gen);

  const ProcSet everyone = ProcSet::universe(n);
  const std::int64_t reg_before = mem.read_count() + mem.write_count();
  Replayed out;
  {
    const Stopwatch watch;
    out.steps = sim.run_until(timed, config.max_steps_per_slot * slots,
                              [&] { return log.all_decided(everyone); });
    tally.sim_ns += watch.nanoseconds();
  }
  tally.reg_ops += mem.read_count() + mem.write_count() - reg_before;
  tally.gen_ns += timed.ns();
  tally.pulls += timed.pulls();
  tally.steps += out.steps;

  for (int s = 0; s < slots; ++s) {
    const std::vector<std::int64_t> values = log.slot_values(s, everyone);
    out.decisions.push_back(values.empty() ? -1 : values.front());
  }

  std::int64_t min_it = -1;
  for (Pid p = 0; p < n; ++p) {
    const std::int64_t it = detector.view(p).iterations;
    tally.iterations += it;
    min_it = min_it < 0 ? it : std::min(min_it, it);
  }
  const std::int64_t window = std::max(
      config.stabilization_window, std::max<std::int64_t>(min_it, 0) / 3);
  {
    const Stopwatch watch;
    out.detector_ok =
        setlib::fd::check_kantiomega(detector, everyone, window).abstract_ok;
    tally.check_ns += watch.nanoseconds();
    ++tally.detector_runs;
  }
  {
    const Stopwatch watch;
    const sched::PackedSchedule packed(sim.executed());
    tally.pack_ns += watch.nanoseconds();
    ++tally.packs;
    const Stopwatch bound_watch;
    out.witness_bound = packed.bound_for(timely, observed);
    tally.bound_ns += bound_watch.nanoseconds();
    ++tally.bounds;
  }
  ++tally.ops;
  return out;
}

std::vector<std::int64_t> batch_commands(const core::AdmissionPlan& plan,
                                         std::size_t index) {
  const core::AdmissionPlan::Batch& batch = plan.batches[index];
  std::vector<std::int64_t> commands;
  for (int s = 0; s < batch.size; ++s) {
    commands.push_back(
        plan.admitted[batch.first_admitted + static_cast<std::size_t>(s)]
            .command);
  }
  return commands;
}

}  // namespace

RunResult run_serve(const RunOptions& options) {
  core::ServiceConfig config;  // (1,1,4)-agreement, B = 64, cap 8192
  config.requests = kRequests;
  config.seed = core::derive_cell_seed(options.seed, 0);

  const auto set_up = [&] {
    ServeSetup built{make_runner("perfbench_serve", options.width),
                     core::ServiceHarness(config), {}};
    built.plan = built.harness.plan();
    return built;
  };
  RunResult out;
  std::optional<ServeSetup> setup(timed_setup(set_up, out.setup_s));
  const std::size_t batch_count = setup->plan.batches.size();

  BatchSink sink;
  sink.rows.reserve(batch_count);
  double busy_s = 0.0;
  double wall_s = 0.0;
  std::int64_t detector_ok = 0;
  std::int64_t batches = 0;
  std::int64_t slots_ok = 0;
  std::int64_t slots = 0;
  HeapCount heap;
  std::optional<core::ClosedLoopReport> last;
  out.ops.resize(batch_count);
  out.intervals = run_intervals(options.seconds, [&](bool timed) {
    sink.rows.clear();
    std::optional<core::ClosedLoopReport> report;
    const Stopwatch watch;
    {
      const HeapScope scope(options.trace, heap);
      report.emplace(setup->harness.run_closed_loop(*setup->runner, {&sink}));
    }
    const double wall = watch.seconds();
    out.attempted += report->plan.offered;
    out.failed += serve_failures(*report);
    for (std::size_t b = 0; b < sink.rows.size(); ++b) {
      const BatchRecord& row = sink.rows[b];
      if (timed && b < out.ops.size()) out.ops[b].add(row.seconds);
      busy_s += row.seconds;
      detector_ok += row.detector_ok ? 1 : 0;
    }
    wall_s += wall;
    batches += static_cast<std::int64_t>(sink.rows.size());
    slots_ok += report->shard_decided_ok;
    slots += report->shard_requests;
    const double ops = static_cast<double>(report->plan.accepted);
    last = std::move(report);
    return Interval{ops, wall};
  }, [&] {
    setup.reset();  // teardown stays outside the timed set-up
    setup.emplace(timed_setup(set_up, out.setup_s));
  });
  if (!options.trace) return out;
  const core::ServiceHarness& harness = setup->harness;
  const core::AdmissionPlan& plan = setup->plan;

  // Traced: per-layer numbers from calls into each module, then a
  // layer-by-layer replay of every batch of the stream.
  std::vector<double> plan_ms;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Stopwatch watch;
    const core::AdmissionPlan again = harness.plan();
    plan_ms.push_back(watch.seconds() * 1e3);
    if (again.batches.size() != plan.batches.size()) out.replay_ok = false;
  }

  LayerTally tally;
  std::vector<double> batch_ms;
  std::size_t request = 0;
  if (sink.rows.size() != plan.batches.size()) {
    out.replay_ok = false;
    out.detail = "serve: the timed run streamed a different batch count";
  }
  for (std::size_t b = 0; b < plan.batches.size() && b < sink.rows.size();
       ++b) {
    const Stopwatch watch;
    const core::BatchOutcome outcome = harness.run_batch(plan, b);
    batch_ms.push_back(watch.seconds() * 1e3);

    const Replayed replay =
        replay_batch(config, batch_commands(plan, b),
                     core::derive_cell_seed(config.seed, b), tally);
    const BatchRecord& timed = sink.rows[b];
    bool same = replay.steps == timed.steps && replay.steps == outcome.steps &&
                replay.witness_bound == timed.witness_bound &&
                replay.detector_ok == timed.detector_ok &&
                replay.decisions == outcome.decisions;
    for (const std::int64_t value : replay.decisions) {
      same = same && request < last->decisions.size() &&
             last->decisions[request].second == value;
      ++request;
    }
    if (!same && out.replay_ok) {
      out.replay_ok = false;
      out.detail = "serve replay diverged at batch " + std::to_string(b);
    }
  }

  out.layers["core.service.plan_ms"] = median(plan_ms);
  out.layers["core.service.batch_ms_p50"] = median(batch_ms);
  out.layers["runtime.pool.idle_frac"] =
      idle_fraction(busy_s, wall_s, options.width);
  out.layers["fd.detector_ok_frac"] = per(detector_ok, batches);
  out.layers["agreement.decided_ok_frac"] = per(slots_ok, slots);
  report_layers(tally, heap, batches, out);
  return out;
}

}  // namespace perfbench
