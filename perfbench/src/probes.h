// Measurement probes the benchmark wraps around the library's public
// entry points: a stopwatch, a timing ScheduleGenerator decorator, a
// timing forwarding ReportSink, the process-wide heap counter, and the
// shared shapes of a workload run (options, result, per-layer metric
// table). Nothing here reaches inside src/: every probe sits on a
// public seam.
#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "estimator.h"
#include "src/core/report.h"
#include "src/core/runner.h"
#include "src/sched/generator.h"

namespace perfbench {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  std::int64_t nanoseconds() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Cost of one steady_clock read in ns, measured once per process. The
/// per-step metrics subtract the probes' own clock reads with it.
double clock_read_ns();

/// Times every next() of the wrapped generator. The wrapped generator
/// must outlive the decorator. Each pull adds about one clock read to
/// ns() and two to the caller's wall time.
class TimedGenerator final : public setlib::sched::ScheduleGenerator {
 public:
  explicit TimedGenerator(setlib::sched::ScheduleGenerator& inner)
      : inner_(inner) {}
  int n() const override { return inner_.n(); }
  setlib::Pid next() override;

  std::int64_t pulls() const noexcept { return pulls_; }
  std::int64_t ns() const noexcept { return ns_; }

 private:
  setlib::sched::ScheduleGenerator& inner_;
  std::int64_t pulls_ = 0;
  std::int64_t ns_ = 0;
};

/// Forwards every hook to `inner`, timing its cell() calls.
class TimedSink final : public setlib::core::ReportSink {
 public:
  explicit TimedSink(setlib::core::ReportSink& inner) : inner_(inner) {}
  void begin_section(const std::string& name, std::size_t grid_cells,
                     const setlib::core::ShardSpec& shard) override {
    inner_.begin_section(name, grid_cells, shard);
  }
  void cell(const setlib::core::SweepCell& cell,
            const setlib::core::RunReport& report, double seconds) override;
  void end_section(const setlib::core::SectionStats& stats) override {
    inner_.end_section(stats);
  }

  std::int64_t rows() const noexcept { return rows_; }
  std::int64_t ns() const noexcept { return ns_; }

 private:
  setlib::core::ReportSink& inner_;
  std::int64_t rows_ = 0;
  std::int64_t ns_ = 0;
};

/// The benchmark binary's global operator new counter (heap.cpp).
/// Counting is off until enabled; the counters are process-wide.
struct HeapCount {
  std::int64_t allocs = 0;
  std::int64_t bytes = 0;
};
void heap_counting(bool on) noexcept;
HeapCount heap_count() noexcept;

/// Counts heap traffic for the lifetime of the scope, when `on`.
class HeapScope {
 public:
  HeapScope(bool on, HeapCount& total);
  ~HeapScope();
  HeapScope(const HeapScope&) = delete;
  HeapScope& operator=(const HeapScope&) = delete;

 private:
  bool on_;
  HeapCount& total_;
  HeapCount start_;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int width = 1;  // pool width
};

/// Set-ups per run besides the one the run uses; setup_s is the median
/// of all of them.
inline constexpr int kSetupRepeats = 20;
/// Intervals run before timing starts (caches, lazy set-up).
inline constexpr int kWarmupIntervals = 2;

/// The per-layer metrics every traced run prints, in output order. A
/// layer the workload never calls reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
inline constexpr LayerMetric kLayerMetrics[] = {
    {"core.service.plan_ms", "ms"},
    {"core.service.batch_ms_p50", "ms"},
    {"core.engine.cell_ms_p50", "ms"},
    {"core.report.sink_us_per_row", "us"},
    {"runtime.pool.idle_frac", "fraction"},
    {"shm.steps_per_op", "count"},
    {"shm.step_ns", "ns"},
    {"shm.reg_ops_per_step", "count"},
    {"sched.generate.ns_per_step", "ns"},
    {"sched.pack.us_per_op", "us"},
    {"sched.scan.pairs_per_s", "1/s"},
    {"sched.bound.us_per_op", "us"},
    {"sched.hash.us_per_op", "us"},
    {"fd.iterations_per_op", "count"},
    {"fd.check.us_per_op", "us"},
    {"fd.detector_ok_frac", "fraction"},
    {"agreement.decided_ok_frac", "fraction"},
    {"agreement.validate.us_per_op", "us"},
    {"util.arena.allocs_per_op", "count"},
    {"heap.allocs_per_op", "count"},
    {"heap.bytes_per_op", "bytes"},
    {"traced.throughput_per_s", "1/s"},
    {"traced.latency_p50_ms", "ms"},
    {"traced.latency_p90_ms", "ms"},
    {"replay.ops_verified", "count"},
};

struct RunResult {
  std::vector<double> setup_s;  // one per repeated set-up
  std::vector<Interval> intervals;  // timed cycles
  std::vector<SpanSampler> ops;     // per-op latencies (s), by content
  /// > 0: latency is per round of ops (fast_end's `rounds`).
  std::size_t rounds = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Traced runs: the replay reproduced the timed run's hashes,
  /// steps and decisions.
  bool replay_ok = true;
  std::string detail;  // first mismatch, for the log
  std::map<std::string, double> layers;  // traced runs only
};

/// Calls `set_up()`, appends its wall time to `samples`, and returns
/// what it built (destroyed by the caller, outside the timing).
template <typename SetUp>
auto timed_setup(SetUp&& set_up, std::vector<double>& samples) {
  const Stopwatch watch;
  auto built = set_up();
  samples.push_back(watch.seconds());
  return built;
}

/// Runs `cycle(false)` kWarmupIntervals times, then `cycle(true)` until
/// `seconds` have passed (at least once); returns the timed intervals.
/// A cycle runs the workload's whole content set once; `true` asks it to
/// record its per-op latencies. Between cycles, `resample_setup()` runs
/// kSetupRepeats times at evenly spaced moments, so the set-up median
/// samples the whole run rather than its first milliseconds.
template <typename Cycle, typename Resample>
std::vector<Interval> run_intervals(double seconds, Cycle&& cycle,
                                    Resample&& resample_setup) {
  for (int w = 0; w < kWarmupIntervals; ++w) cycle(false);
  std::vector<Interval> out;
  const Stopwatch clock;
  int setups = 0;
  while (out.empty() || clock.seconds() < seconds) {
    out.push_back(cycle(true));
    while (setups < kSetupRepeats &&
           clock.seconds() >= seconds * setups / kSetupRepeats) {
      resample_setup();
      ++setups;
    }
  }
  for (; setups < kSetupRepeats; ++setups) resample_setup();
  return out;
}

/// A pool of `width` workers for one workload run.
std::unique_ptr<setlib::core::ExperimentRunner> make_runner(const char* name,
                                                            int width);

/// Pool idle share: 1 - busy / (wall * width), where busy is the summed
/// op time and wall the summed interval time of the same ops.
double idle_fraction(double busy_s, double wall_s, int width);

/// What a traced replay counts and times, layer by layer. Each timing
/// has its own call count; a layer with no calls reports 0.
struct LayerTally {
  std::int64_t ops = 0;  // replayed ops, verified against the timed run
  std::int64_t pulls = 0;  // generator next() calls
  std::int64_t gen_ns = 0;
  std::int64_t steps = 0;  // executed simulator steps
  std::int64_t sim_ns = 0;  // run_until, generator time included
  std::int64_t reg_ops = 0;
  std::int64_t detector_runs = 0;
  std::int64_t iterations = 0;
  std::int64_t check_ns = 0;
  std::int64_t validates = 0;
  std::int64_t validate_ns = 0;
  std::int64_t packs = 0;
  std::int64_t pack_ns = 0;
  std::int64_t bounds = 0;
  std::int64_t bound_ns = 0;
  std::int64_t hashes = 0;
  std::int64_t hash_ns = 0;
  std::int64_t scan_pairs = 0;
  std::int64_t scan_ns = 0;
};

/// Writes the per-layer metrics every workload shares into out.layers:
/// the replay tally's, the heap counter's over `heap_ops` timed ops, and
/// the traced run's own end-to-end numbers.
void report_layers(const LayerTally& tally, const HeapCount& heap,
                   std::int64_t heap_ops, RunResult& out);

/// num / den, or 0 when den is 0.
double per(std::int64_t num, std::int64_t den);

RunResult run_serve(const RunOptions& options);
RunResult run_sweep(const RunOptions& options);
RunResult run_census(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H
