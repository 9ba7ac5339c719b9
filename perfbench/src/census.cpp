// census: repeated core::ranked_pair_scan membership censuses of
// S^2_{23,24} prefixes, alternating the enforced-witness and
// i-subset-starver schedules, each op with its own seed. Analyzer only
// (generate -> pack -> RankedPairScan through the SIMD kernel table):
// no simulator. One interval is kCensuses censuses; every interval runs
// the same seeds, so intervals differ only by host noise.
#include <memory>
#include <optional>

#include "checks.h"
#include "probes.h"
#include "src/core/sweep.h"
#include "src/sched/analyzer.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"

namespace perfbench {

namespace core = setlib::core;
namespace sched = setlib::sched;
using setlib::ProcSet;

namespace {

constexpr std::size_t kCensuses = 100;

std::vector<core::PairScanConfig> make_censuses(std::uint64_t seed) {
  std::vector<core::PairScanConfig> out;
  for (std::size_t op = 0; op < kCensuses; ++op) {
    core::PairScanConfig cfg;  // n = 24, i = 2, j = 23, len = 40k, cap 3
    cfg.seed = core::derive_cell_seed(seed, op);
    cfg.enforced_bound = op % 2 == 0 ? 3 : 0;  // odd ops: starver
    out.push_back(cfg);
  }
  return out;
}

struct CensusSetup {
  std::unique_ptr<core::ExperimentRunner> runner;
  std::vector<core::PairScanConfig> censuses;
};

/// ranked_pair_scan rebuilt from the analyzer's public entry points, on
/// one thread: generator, pack, one arena-backed full-range scan.
core::PairScanResult replay_census(const core::PairScanConfig& cfg,
                                   setlib::util::ArenaAllocator& arena,
                                   LayerTally& tally,
                                   std::int64_t& arena_allocs) {
  std::unique_ptr<sched::ScheduleGenerator> gen;
  if (cfg.enforced_bound > 0) {
    gen = sched::EnforcedGenerator::single(
        std::make_unique<sched::UniformRandomGenerator>(cfg.n, cfg.seed),
        sched::TimelinessConstraint(ProcSet::range(0, cfg.i),
                                    ProcSet::range(0, cfg.j),
                                    cfg.enforced_bound));
  } else {
    gen = std::make_unique<sched::KSubsetStarverGenerator>(
        cfg.n, ProcSet::universe(cfg.n), cfg.i, 64);
  }
  TimedGenerator timed(*gen);
  const sched::Schedule s = sched::generate(timed, cfg.len);
  tally.gen_ns += timed.ns();
  tally.pulls += timed.pulls();

  const Stopwatch pack;
  const sched::PackedSchedule packed(s);
  tally.pack_ns += pack.nanoseconds();
  ++tally.packs;

  const std::int64_t allocs_before = arena.allocs();
  const Stopwatch scan_watch;
  const sched::RankedPairScan scan(packed, cfg.i, cfg.j, &arena);
  const sched::RankedPairScan::MemberCount count =
      scan.count_members(cfg.bound_cap);
  tally.scan_ns += scan_watch.nanoseconds();
  tally.scan_pairs += count.pairs;
  arena_allocs += arena.allocs() - allocs_before;
  ++tally.ops;

  core::PairScanResult result;
  result.pairs = count.pairs;
  result.members = count.members;
  result.found = count.first.has_value();
  if (count.first) result.first = *count.first;
  return result;
}

}  // namespace

RunResult run_census(const RunOptions& options) {
  const auto set_up = [&] {
    return CensusSetup{make_runner("perfbench_census", options.width),
                       make_censuses(options.seed)};
  };
  RunResult out;
  std::optional<CensusSetup> setup(timed_setup(set_up, out.setup_s));
  // Every set-up builds the same list from the seed.
  const std::vector<core::PairScanConfig> censuses = setup->censuses;

  std::vector<core::PairScanResult> results(censuses.size());
  std::vector<double> latencies(censuses.size());
  HeapCount heap;
  std::int64_t ops = 0;
  out.ops.resize(censuses.size());
  out.intervals = run_intervals(options.seconds, [&](bool timed) {
    const Stopwatch watch;
    {
      const HeapScope scope(options.trace, heap);
      for (std::size_t op = 0; op < censuses.size(); ++op) {
        const Stopwatch op_watch;
        results[op] = core::ranked_pair_scan(censuses[op], *setup->runner);
        latencies[op] = op_watch.seconds();
      }
    }
    const double wall = watch.seconds();
    for (std::size_t op = 0; op < censuses.size(); ++op) {
      if (census_failed(censuses[op], results[op])) ++out.failed;
      if (timed) out.ops[op].add(latencies[op]);
    }
    out.attempted += static_cast<std::int64_t>(censuses.size());
    ops += static_cast<std::int64_t>(censuses.size());
    return Interval{static_cast<double>(censuses.size()), wall};
  }, [&] {
    setup.reset();  // teardown stays outside the timed set-up
    setup.emplace(timed_setup(set_up, out.setup_s));
  });
  if (!options.trace) return out;

  // Traced: replay a fixed sample of ops on one thread, layer by layer;
  // each must reproduce the timed census counts exactly.
  constexpr std::size_t kSample = 10;
  LayerTally tally;
  std::int64_t arena_allocs = 0;
  setlib::util::ArenaAllocator arena;
  core::RunnerOptions serial_options;
  serial_options.threads = 1;
  core::ExperimentRunner serial(serial_options);
  double busy_s = 0.0;  // single-thread time of the sampled ops
  double pool_s = 0.0;  // their timed wall time x pool width
  for (std::size_t op = 0; op < kSample && op < censuses.size(); ++op) {
    const Stopwatch busy;
    core::ranked_pair_scan(censuses[op], serial);
    busy_s += busy.seconds();
    pool_s += median(out.ops[op].samples()) * options.width;

    const core::PairScanResult replay =
        replay_census(censuses[op], arena, tally, arena_allocs);
    const core::PairScanResult& timed = results[op];
    const bool same = replay.pairs == timed.pairs &&
                      replay.members == timed.members &&
                      replay.found == timed.found &&
                      (!timed.found ||
                       (replay.first.timely_set == timed.first.timely_set &&
                        replay.first.observed_set == timed.first.observed_set &&
                        replay.first.bound == timed.first.bound));
    if (!same && out.replay_ok) {
      out.replay_ok = false;
      out.detail = "census replay diverged at op " + std::to_string(op);
    }
  }

  out.layers["runtime.pool.idle_frac"] = idle_fraction(busy_s, pool_s, 1);
  out.layers["util.arena.allocs_per_op"] = per(arena_allocs, tally.ops);
  report_layers(tally, heap, ops, out);
  return out;
}

}  // namespace perfbench
