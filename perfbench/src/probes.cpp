#include "probes.h"

namespace perfbench {

double clock_read_ns() {
  static const double cost = [] {
    constexpr int kReads = 200000;
    const Stopwatch watch;
    std::int64_t sink = 0;
    for (int r = 0; r < kReads; ++r) sink += Stopwatch().nanoseconds();
    const double total = static_cast<double>(watch.nanoseconds());
    // Each Stopwatch().nanoseconds() is two clock reads.
    return sink >= 0 ? total / (2.0 * kReads) : 0.0;
  }();
  return cost;
}

setlib::Pid TimedGenerator::next() {
  const Stopwatch watch;
  const setlib::Pid p = inner_.next();
  ns_ += watch.nanoseconds();
  ++pulls_;
  return p;
}

void TimedSink::cell(const setlib::core::SweepCell& cell,
                     const setlib::core::RunReport& report, double seconds) {
  const Stopwatch watch;
  inner_.cell(cell, report, seconds);
  ns_ += watch.nanoseconds();
  ++rows_;
}

HeapScope::HeapScope(bool on, HeapCount& total)
    : on_(on), total_(total), start_(heap_count()) {
  if (on_) heap_counting(true);
}

HeapScope::~HeapScope() {
  if (!on_) return;
  heap_counting(false);
  const HeapCount end = heap_count();
  total_.allocs += end.allocs - start_.allocs;
  total_.bytes += end.bytes - start_.bytes;
}

std::unique_ptr<setlib::core::ExperimentRunner> make_runner(const char* name,
                                                            int width) {
  setlib::core::RunnerOptions options;
  options.name = name;
  options.threads = width;
  return std::make_unique<setlib::core::ExperimentRunner>(options);
}

double idle_fraction(double busy_s, double wall_s, int width) {
  if (wall_s <= 0.0 || width <= 0) return 0.0;
  return 1.0 - busy_s / (wall_s * static_cast<double>(width));
}

double per(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

void report_layers(const LayerTally& t, const HeapCount& heap,
                   std::int64_t heap_ops, RunResult& out) {
  // The timing decorator adds about one clock read to each generator
  // timing and two to each simulator step.
  const double clock_ns = clock_read_ns();
  auto& m = out.layers;
  m["shm.steps_per_op"] = per(t.steps, t.ops);
  m["shm.step_ns"] = t.steps > 0 ? per(t.sim_ns - t.gen_ns, t.steps) -
                                       clock_ns * per(t.pulls, t.steps)
                                 : 0.0;
  m["shm.reg_ops_per_step"] = per(t.reg_ops, t.steps);
  m["sched.generate.ns_per_step"] =
      t.pulls > 0 ? per(t.gen_ns, t.pulls) - clock_ns : 0.0;
  m["sched.pack.us_per_op"] = per(t.pack_ns, t.packs) * 1e-3;
  m["sched.scan.pairs_per_s"] = per(t.scan_pairs, t.scan_ns) * 1e9;
  m["sched.bound.us_per_op"] = per(t.bound_ns, t.bounds) * 1e-3;
  m["sched.hash.us_per_op"] = per(t.hash_ns, t.hashes) * 1e-3;
  m["fd.iterations_per_op"] = per(t.iterations, t.detector_runs);
  m["fd.check.us_per_op"] = per(t.check_ns, t.detector_runs) * 1e-3;
  m["agreement.validate.us_per_op"] = per(t.validate_ns, t.validates) * 1e-3;
  m["heap.allocs_per_op"] = per(heap.allocs, heap_ops);
  m["heap.bytes_per_op"] = per(heap.bytes, heap_ops);
  const FastEnd traced = fast_end(out.intervals, out.ops, out.rounds);
  m["traced.throughput_per_s"] = traced.throughput_per_s;
  m["traced.latency_p50_ms"] = traced.p50_s * 1e3;
  m["traced.latency_p90_ms"] = traced.p90_s * 1e3;
  m["replay.ops_verified"] = static_cast<double>(t.ops);
}

}  // namespace perfbench
