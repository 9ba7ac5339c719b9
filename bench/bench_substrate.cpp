// EXP-SUB1 — substrate microbenchmarks: registers, coroutine step
// dispatch, subset ranking, schedule generation and analysis, and the
// threaded register implementation. A schedule-analysis sweep section
// (generator family × length grid) runs through the persistent
// ExperimentRunner pool (--threads / --cells / --json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>

#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/core/sweep_cli.h"
#include "src/runtime/rt_memory.h"
#include "src/sched/analyzer.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/sched/simd.h"
#include "src/shm/memory.h"
#include "src/shm/process.h"
#include "src/shm/program.h"
#include "src/shm/simulator.h"
#include "src/shm/snapshot.h"
#include "src/util/arena.h"
#include "src/util/procset.h"
#include "src/util/table.h"

namespace {

using namespace setlib;

void BM_SimMemoryReadWrite(benchmark::State& state) {
  shm::SimMemory mem;
  const auto reg = mem.alloc("r");
  mem.write(reg, shm::Value::of(1, 2, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.read(reg));
    mem.write(reg, shm::Value::of(4, 5, 6));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_SimMemoryReadWrite);

void BM_RtMemoryReadWrite(benchmark::State& state) {
  runtime::RtMemory mem;
  const auto reg = mem.alloc("r");
  mem.write(reg, shm::Value::of(1, 2, 3));
  mem.freeze();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.read(reg));
    mem.write(reg, shm::Value::of(4, 5, 6));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_RtMemoryReadWrite);

shm::Prog spin_reader(shm::RegisterId reg) {
  for (;;) {
    benchmark::DoNotOptimize(co_await shm::read(reg));
  }
}

void BM_CoroutineStepDispatch(benchmark::State& state) {
  shm::SimMemory mem;
  const auto reg = mem.alloc("r");
  shm::ProcessRuntime proc(0);
  proc.add_task(spin_reader(reg), "spin");
  for (auto _ : state) {
    proc.step(mem);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoroutineStepDispatch);

void BM_SubsetRank(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = n / 2;
  SubsetRanker ranker(n, k);
  std::int64_t r = 0;
  for (auto _ : state) {
    const ProcSet s = ranker.unrank(r % ranker.count());
    benchmark::DoNotOptimize(ranker.rank(s));
    ++r;
  }
}
BENCHMARK(BM_SubsetRank)->Arg(8)->Arg(12)->Arg(16);

void BM_GeneratorThroughput(benchmark::State& state) {
  sched::UniformRandomGenerator gen(8, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GeneratorThroughput);

void BM_EnforcedGeneratorThroughput(benchmark::State& state) {
  auto base = std::make_unique<sched::UniformRandomGenerator>(8, 5);
  auto gen = sched::EnforcedGenerator::single(
      std::move(base), sched::TimelinessConstraint(
                           ProcSet::range(0, 2), ProcSet::range(0, 5), 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen->next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnforcedGeneratorThroughput);

shm::Prog snapshot_loop(shm::AtomicSnapshot* snap, Pid p) {
  for (std::int64_t r = 1;; ++r) {
    co_await snap->update(p, r);
    std::vector<std::int64_t> out;
    co_await snap->scan(p, &out);
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_AtomicSnapshotSteps(benchmark::State& state) {
  // Simulator steps/sec with every process doing update+scan loops.
  const int n = static_cast<int>(state.range(0));
  shm::SimMemory mem;
  shm::AtomicSnapshot snap(mem, n, "snap");
  shm::Simulator sim(mem, n);
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(snapshot_loop(&snap, p), "snap");
  }
  sched::RoundRobinGenerator gen(n);
  for (auto _ : state) {
    sim.run(gen, 10'000);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_AtomicSnapshotSteps)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMillisecond);

void BM_AnalyzerScan(benchmark::State& state) {
  const std::int64_t len = state.range(0);
  sched::UniformRandomGenerator gen(8, 9);
  const auto schedule = sched::generate(gen, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::min_timeliness_bound(
        schedule, ProcSet::range(0, 2), ProcSet::range(2, 8)));
  }
  state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(BM_AnalyzerScan)->Arg(1 << 14)->Arg(1 << 18);

void BM_PackSchedule(benchmark::State& state) {
  // repack() into a recycled instance on an arena: the pack-once
  // pipeline's per-run packing cost, with the arena counters exported
  // per op — 0 allocs/op is the steady-state claim.
  const std::int64_t len = state.range(0);
  sched::UniformRandomGenerator gen(8, 9);
  const auto schedule = sched::generate(gen, len);
  util::ArenaAllocator arena;
  const std::int64_t allocs_before = arena.allocs();
  const std::int64_t bytes_before = arena.bytes();
  for (auto _ : state) {
    const util::FrameScope frame(arena);
    sched::PackedSchedule packed(schedule, arena);
    benchmark::DoNotOptimize(packed.column(0));
  }
  const auto ops = static_cast<double>(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(state.iterations())));
  state.counters["allocs_per_op"] =
      static_cast<double>(arena.allocs() - allocs_before) / ops;
  state.counters["bytes_per_op"] =
      static_cast<double>(arena.bytes() - bytes_before) / ops;
  state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(BM_PackSchedule)->Arg(1 << 14)->Arg(1 << 18);

void run_ranked_pair_scan(benchmark::State& state,
                          const sched::simd::Kernels* force) {
  // Full (i=2, j=6) census over a packed n=8 prefix, scratch on an
  // arena. The SIMD/Scalar pair differ only in the kernel table, so
  // their ratio is the vectorization win on this host.
  const std::int64_t len = state.range(0);
  sched::simd::set_kernels_for_testing(force);
  sched::UniformRandomGenerator gen(8, 9);
  const auto schedule = sched::generate(gen, len);
  const sched::PackedSchedule packed(schedule);
  util::ArenaAllocator arena;
  const std::int64_t allocs_before = arena.allocs();
  std::int64_t pairs = 0;
  for (auto _ : state) {
    const sched::RankedPairScan scan(packed, 2, 6, &arena);
    const auto count = scan.count_members(3);
    benchmark::DoNotOptimize(count.members);
    pairs = count.pairs;
  }
  sched::simd::set_kernels_for_testing(nullptr);
  const auto ops = static_cast<double>(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(state.iterations())));
  state.counters["allocs_per_op"] =
      static_cast<double>(arena.allocs() - allocs_before) / ops;
  state.counters["pairs"] = static_cast<double>(pairs);
  state.SetItemsProcessed(state.iterations() * pairs);
}

void BM_RankedPairScanSIMD(benchmark::State& state) {
  run_ranked_pair_scan(state, nullptr);  // dispatched best-for-host
}
BENCHMARK(BM_RankedPairScanSIMD)->Arg(1 << 12)->Arg(1 << 14);

void BM_RankedPairScanScalar(benchmark::State& state) {
  run_ranked_pair_scan(state, &sched::simd::scalar_kernels());
}
BENCHMARK(BM_RankedPairScanScalar)->Arg(1 << 12)->Arg(1 << 14);

void print_analysis_sweep(core::ExperimentRunner& runner,
                          core::JsonSink& json) {
  // EXP-SUB1b: generate-and-analyze grid — generator family × schedule
  // length, each cell measuring the min timeliness bound of the first
  // 2 processes w.r.t. the rest on a fresh seeded schedule.
  const int n = 8;
  const std::int64_t lengths[] = {1 << 12, 1 << 14, 1 << 16};
  constexpr std::size_t kFamilies = 2;  // uniform, round-robin
  const std::size_t cells = std::size(lengths) * kFamilies;
  const std::size_t first = runner.shard_range(cells).first;

  core::WallTimer timer;
  const auto bounds = runner.map<std::int64_t>(
      cells, [&](std::size_t idx) {
        const std::int64_t len = lengths[idx / kFamilies];
        const bool uniform = idx % kFamilies == 0;
        const sched::Schedule schedule = [&] {
          if (uniform) {
            sched::UniformRandomGenerator gen(
                n, core::derive_cell_seed(9, idx));
            return sched::generate(gen, len);
          }
          sched::RoundRobinGenerator gen(n);
          return sched::generate(gen, len);
        }();
        return sched::min_timeliness_bound(
            schedule, ProcSet::range(0, 2), ProcSet::range(2, n));
      });
  const double wall = timer.seconds();

  TextTable table({"generator", "length", "bound {0,1} vs rest"});
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const std::size_t idx = first + i;
    table.row()
        .cell(idx % kFamilies == 0 ? "uniform" : "round-robin")
        .cell(lengths[idx / kFamilies])
        .cell(bounds[i]);
  }
  std::cout << "EXP-SUB1b: schedule generate+analyze sweep (n=" << n
            << ", threads=" << runner.pool().threads() << ")\n"
            << table.render() << "\n";
  json.section("analysis_sweep", bounds.size(), wall);
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      setlib::core::parse_runner_options(&argc, argv, "substrate");
  setlib::core::ExperimentRunner runner(options);
  setlib::core::JsonSink json = runner.json_sink();
  print_analysis_sweep(runner, json);
  json.write_if_requested();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
