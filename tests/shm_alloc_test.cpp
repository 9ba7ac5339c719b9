// The register substrate's no-allocation contract: reading and writing
// values of up to Value::kInlineWords words never touches the heap.
// This binary replaces the global operator new/delete with counting
// versions (for this executable only) and checks the count stays at
// zero across a hot loop of register operations. Program frames ride
// along: once a thread has run a program shape, later instances reuse
// its recycled frames, and destroying a half-run task returns every
// frame of its suspended stack. So does the census generation
// contract: the enforcer's next() and fill() allocate nothing, and
// packing straight from a generator allocates its words and nothing
// else, and a whole census allocates no more than it did before it
// overlapped its scan with its packing, nor regrows its survivor
// vectors by doubling. And the reactive adversaries' per-step
// contract: once built, their next() allocates nothing while the feed
// is published into.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/agreement/multishot.h"
#include "src/core/experiments.h"
#include "src/core/runner.h"
#include "src/core/sweep.h"
#include "src/fd/kantiomega.h"
#include "src/sched/analyzer.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/sched/observations.h"
#include "src/sched/reactive.h"
#include "src/shm/memory.h"
#include "src/shm/process.h"
#include "src/shm/program.h"
#include "src/shm/simulator.h"
#include "src/shm/value.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_frees{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
    g_frees.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(p);
}

// Heap allocations made by `fn`.
template <typename Fn>
std::int64_t allocations_in(Fn&& fn) {
  g_allocs.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocs.load();
}

// Heap blocks `fn` allocated and did not free.
template <typename Fn>
std::int64_t heap_growth_in(Fn&& fn) {
  g_frees.store(0);
  const std::int64_t allocs = allocations_in(fn);
  return allocs - g_frees.load();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace setlib::shm {
namespace {

constexpr int kOps = 10'000;

// The op-th value written: sizes cycle 1, 2, 3, 4 words.
Value value_for(int op) {
  switch (op % 4) {
    case 0:
      return Value::of(op);
    case 1:
      return Value::of(op, -op);
    case 2:
      return Value::of(op, 1, 2);
    default:
      return Value::of(op, 1, 2, 3);
  }
}

TEST(ShmAllocTest, CounterSeesSpilledValues) {
  // The hook is live: a wider-than-inline value does allocate.
  SimMemory mem;
  const RegisterId r = mem.alloc("wide");
  const std::int64_t allocs = allocations_in([&] {
    mem.write(r, Value{1, 2, 3, 4, 5});
    const Value back = mem.read(r);
    EXPECT_EQ(back.size(), 5u);
  });
  EXPECT_GE(allocs, 2);
}

TEST(ShmAllocTest, InlineRegisterOpsDoNotAllocate) {
  SimMemory mem;
  const RegisterId base = mem.alloc_array("R", 8);
  const RegisterId scalar = mem.alloc("x");
  std::int64_t checksum = 0;
  const std::int64_t allocs = allocations_in([&] {
    for (int op = 0; op < kOps; ++op) {
      const RegisterId reg = op % 9 == 8 ? scalar : base + op % 8;
      mem.write(reg, value_for(op));
      const Value v = mem.read(reg);
      Value copy = v;
      checksum += copy.at_or(0, 0) + copy.at_or(3, 0) +
                  static_cast<std::int64_t>(copy.size());
    }
  });
  EXPECT_EQ(allocs, 0);
  EXPECT_EQ(mem.read_count(), kOps);
  EXPECT_EQ(mem.write_count(), kOps);
  EXPECT_NE(checksum, 0);
}

// A program alternating reads and writes of inline values.
Prog read_modify_write(RegisterId reg, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const Value v = co_await read(reg);
    co_await write(reg, value_for(static_cast<int>(v.as_int_or(0)) + 1));
  }
}

TEST(ShmAllocTest, ProcessStepsDoNotAllocate) {
  // The coroutine plumbing (posted ops, awaiters) carries Values too:
  // once the task exists, stepping it is allocation-free.
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  ProcessRuntime proc(0);
  proc.add_task(read_modify_write(r, kOps / 2), "rmw");
  const std::int64_t allocs = allocations_in([&] {
    for (int op = 0; op < kOps; ++op) proc.step(mem);
  });
  EXPECT_EQ(allocs, 0);
  EXPECT_EQ(proc.ops_executed(), kOps);
  EXPECT_EQ(mem.peek(r).as_int_or(-1), kOps / 2);
}

// One read-modify-write of reg as a child program.
Prog bump(RegisterId reg) {
  const Value v = co_await read(reg);
  co_await write(reg, Value::of(v.as_int_or(0) + 1));
}

Prog bump_forever(RegisterId reg) {
  for (;;) co_await bump(reg);
}

TEST(ShmAllocTest, FreshChildPerIterationDoesNotAllocate) {
  // Every iteration creates, runs and destroys a child frame; after the
  // first, each one reuses its predecessor's recycled frame.
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  ProcessRuntime proc(0);
  proc.add_task(bump_forever(r), "bump");
  proc.step(mem);
  proc.step(mem);  // warm-up: one whole iteration
  const std::int64_t frames = frame_heap_allocations();
  const std::int64_t allocs = allocations_in([&] {
    for (int op = 0; op < kOps; ++op) proc.step(mem);
  });
  EXPECT_EQ(allocs, 0);
  EXPECT_EQ(frame_heap_allocations(), frames);
  EXPECT_EQ(mem.peek(r).as_int_or(-1), 1 + kOps / 2);
}

// A task whose stack is three frames deep inside a two-kid race whose
// kids are themselves suspended inside children.
Prog nested_racer(RegisterId a, RegisterId b) {
  auto racing_kid = [](RegisterId reg) -> Prog { co_await bump_forever(reg); };
  Prog kids[] = {racing_kid(a), racing_kid(b)};
  co_await first_of(kids);
}

Prog nested_task(RegisterId a, RegisterId b) {
  co_await bump(a);
  co_await nested_racer(a, b);
}

TEST(ShmAllocTest, DestroyingAMidRunProcessFreesEveryFrame) {
  SimMemory mem;
  const RegisterId a = mem.alloc("a");
  const RegisterId b = mem.alloc("b");
  const auto run_and_drop = [&] {
    ProcessRuntime proc(0);
    proc.add_task(nested_task(a, b), "nested");
    for (int s = 0; s < 7; ++s) EXPECT_TRUE(proc.step(mem));
    EXPECT_FALSE(proc.halted());
  };  // proc (and the suspended stack) destroyed here
  run_and_drop();
  const std::int64_t frames = frame_heap_allocations();
  // A frame that outlived its process would have to be replaced from
  // the heap, and the replacement would never be freed.
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(heap_growth_in(run_and_drop), 0) << "round " << round;
  }
  EXPECT_EQ(frame_heap_allocations(), frames);
}

// One multi-shot log batch (detector + k Paxos instances per slot).
std::int64_t multishot_batch(int k, std::uint64_t seed) {
  const int n = 4, t = 2, slots = 6;
  SimMemory mem;
  fd::KAntiOmega detector(mem, fd::KAntiOmega::Params{n, k, t, 1});
  agreement::MultiShotAgreement log(
      mem, agreement::MultiShotAgreement::Params{n, k, t, slots}, &detector);
  Simulator sim(mem, n);
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(detector.run(p), "fd");
    log.install(sim.process(p), p, std::vector<std::int64_t>(slots, 7 + p));
  }
  auto gen = sched::EnforcedGenerator::single(
      std::make_unique<sched::UniformRandomGenerator>(n, seed),
      sched::TimelinessConstraint(ProcSet::range(0, k),
                                  ProcSet::range(0, t + 1), 3));
  const ProcSet everyone = ProcSet::universe(n);
  const std::int64_t steps = sim.run_until(
      *gen, 400'000, [&] { return log.all_decided(everyone); });
  EXPECT_TRUE(log.all_decided(everyone));
  return steps;
}

// A serving batch's register set-up (slots of one Paxos instance over
// n = 4, behind the detector's two arrays): storage, block table and
// name characters are each reserved once, at the first registration.
// A 40-slot batch fits; the 64-slot cap outgrows each reservation once.
TEST(SetupAllocTest, SimMemoryReservesAtTheFirstRegistration) {
  for (const auto& [slots, want] : {std::pair{40, 3}, std::pair{64, 6}}) {
    const std::int64_t allocs = allocations_in([slots = slots] {
      SimMemory mem;
      mem.alloc_array("Heartbeat", 4);
      mem.alloc_array("Counter", 16);
      for (int s = 0; s < slots; ++s) {
        mem.alloc_array(RegisterName("ms.slot", s, ".inst", 0, ".R"), 4);
        mem.alloc(RegisterName("ms.slot", s, ".inst", 0, ".D"));
      }
      EXPECT_EQ(mem.register_count(), 4 + 16 + slots * 5);
    });
    EXPECT_EQ(allocs, want) << slots << " slots";
  }
}

// The detector's views and every task's local variables come from one
// buffer: building it and running each process through its first loop
// iteration allocates the buffer, the views and the k-subsets, and
// nothing per process.
TEST(SetupAllocTest, DetectorCarvesViewsAndLocalsFromOneBuffer) {
  constexpr int kN = 5;
  const auto build_and_run = [] {
    SimMemory mem;
    mem.alloc("warm");  // the memory's own reservation, counted elsewhere
    std::int64_t allocs = 0;
    allocs += allocations_in([&] {
      fd::KAntiOmega detector(mem, fd::KAntiOmega::Params{kN, 2, 2, 1});
      ProcessRuntime procs[kN] = {ProcessRuntime(0), ProcessRuntime(1),
                                  ProcessRuntime(2), ProcessRuntime(3),
                                  ProcessRuntime(4)};
      for (Pid p = 0; p < kN; ++p) {
        procs[p].add_task(detector.run(p), "fd");
      }
      // One iteration: 50 counter reads, a heartbeat write, 5 heartbeat
      // reads and at most 10 counter writes.
      for (int step = 0; step < 66; ++step) {
        for (Pid p = 0; p < kN; ++p) procs[p].step(mem);
      }
      for (Pid p = 0; p < kN; ++p) {
        EXPECT_GE(detector.view(p).iterations, 1);
      }
    });
    return allocs;
  };
  build_and_run();  // first run of the shape: frames come from the heap
  // Buffer, views, subsets; then one task table per process.
  EXPECT_EQ(build_and_run(), 3 + kN);
}

TEST(ShmAllocTest, MultiShotBatchLoopAllocatesNoFramesAfterTheFirst) {
  for (const int k : {1, 2}) {
    multishot_batch(k, 1);
    const std::int64_t frames = frame_heap_allocations();
    for (std::uint64_t seed = 2; seed <= 6; ++seed) {
      EXPECT_GT(multishot_batch(k, seed), 0);
      EXPECT_EQ(frame_heap_allocations(), frames) << "k=" << k
                                                  << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace setlib::shm

namespace setlib::sched {
namespace {

std::unique_ptr<EnforcedGenerator> census_enforced() {
  return EnforcedGenerator::single(
      std::make_unique<UniformRandomGenerator>(24, 11),
      TimelinessConstraint(ProcSet::range(0, 2), ProcSet::range(0, 23), 3));
}

TEST(CensusAllocTest, EnforcedNextAndFillDoNotAllocate) {
  auto gen = census_enforced();
  std::vector<Pid> block(4'096);
  std::int64_t checksum = 0;
  const std::int64_t allocs = allocations_in([&] {
    for (int round = 0; round < 10; ++round) {
      gen->fill(block);
      for (int t = 0; t < 1'000; ++t) checksum += gen->next();
    }
  });
  EXPECT_EQ(allocs, 0);
  EXPECT_GT(gen->substitutions(), 0);
  EXPECT_NE(checksum, 0);
}

TEST(CensusAllocTest, GeneratorFedPackAllocatesOnlyItsWords) {
  auto enforced = census_enforced();
  KSubsetStarverGenerator starver(24, ProcSet::universe(24), 2, 64);
  for (ScheduleGenerator* gen :
       {static_cast<ScheduleGenerator*>(enforced.get()),
        static_cast<ScheduleGenerator*>(&starver)}) {
    std::int64_t words = 0;
    const std::int64_t allocs = allocations_in([&] {
      const PackedSchedule packed(*gen, 40'000);
      words = packed.words();
    });
    EXPECT_EQ(allocs, 1);
    EXPECT_EQ(words, 625);
  }
}

// One whole n = 24 census through core::ranked_pair_scan, the first
// two perfbench censuses (seed derive_cell_seed(1, op)), at pool widths
// 1 and 2 on a warm runner. Before the census scanned its pairs while
// the rest of the schedule was still being packed, the enforced census
// made 10 and 11 allocations and the starver 13 and 14; overlapping
// the two may cost at most one more, for the survivor storage. The
// census now hands the pool its closures by reference instead of
// copying two of them to the heap, which pays for the enforced
// census's survivor vector (its member pair) and its finish pass's
// error slot; the starver has no survivor and no finish pass. The
// enforcer keeps its one constraint's state inline instead of in a
// one-element vector, which takes one more allocation off the enforced
// census.
TEST(CensusAllocTest, WholeCensusAllocatesAsBefore) {
  struct Pin {
    std::uint64_t op;
    int threads;
    std::int64_t before;
    std::int64_t now;
  };
  for (const Pin pin : {Pin{0, 1, 10, 9}, Pin{0, 2, 11, 10},
                        Pin{1, 1, 13, 11}, Pin{1, 2, 14, 12}}) {
    core::RunnerOptions options;
    options.threads = pin.threads;
    core::ExperimentRunner runner(options);
    core::PairScanConfig cfg;
    cfg.seed = core::derive_cell_seed(1, pin.op);
    cfg.enforced_bound = pin.op % 2 == 0 ? 3 : 0;
    core::ranked_pair_scan(cfg, runner);  // warm
    core::PairScanResult got;
    const std::int64_t allocs = allocations_in(
        [&] { got = core::ranked_pair_scan(cfg, runner); });
    EXPECT_EQ(got.pairs, 276 * 24);
    EXPECT_EQ(allocs, pin.now) << "op " << pin.op << " at " << pin.threads
                               << " threads";
    EXPECT_LE(allocs, pin.before + 1);
  }
}

// A census where most pairs survive the horizon: the n = 8, i = 2,
// j = 3, cap 16 census of CensusPinTest.LongLivedMembersKeepTheirCounts
// (945 of its 1,568 pairs are members). While its four chunks' survivor
// vectors regrew by doubling it made 48 allocations at width 1 and 50
// at width 2; past its first survivor each chunk now reserves its
// remaining pairs at once (17 and 19), and its enforcer keeps its one
// constraint's state inline instead of in a one-element vector.
TEST(CensusAllocTest, ManySurvivorsReserveOncePerChunk) {
  struct Pin {
    int threads;
    std::int64_t allocs;
  };
  for (const Pin pin : {Pin{1, 16}, Pin{2, 18}}) {
    core::RunnerOptions options;
    options.threads = pin.threads;
    core::ExperimentRunner runner(options);
    core::PairScanConfig cfg;
    cfg.n = 8;
    cfg.i = 2;
    cfg.j = 3;
    cfg.bound_cap = 16;
    cfg.seed = core::derive_cell_seed(1, 0);
    core::ranked_pair_scan(cfg, runner);  // warm
    core::PairScanResult got;
    const std::int64_t allocs = allocations_in(
        [&] { got = core::ranked_pair_scan(cfg, runner); });
    EXPECT_EQ(got.members, 945);
    EXPECT_EQ(allocs, pin.allocs) << "at " << pin.threads << " threads";
  }
}

// 10,000 steps of every reactive kind, with the feed published into
// the way the engine does it: every step recorded, and every 64 steps
// each process's progress published and the leaders marked decided.
TEST(ReactiveAllocTest, NextAllocatesNothingAfterConstruction) {
  for (const ReactiveInfo& info : reactive_adversaries()) {
    for (const int victims : {0, 2}) {
      ReactiveParams params;
      params.n = 7;
      params.victims = victims;
      params.stretch = 8;
      params.crash_budget = 2;
      auto gen = make_reactive(info.kind, params, 3);
      ObservationFeed& feed = *gen->feed_ptr();
      std::int64_t checksum = 0;
      const std::int64_t allocs = allocations_in([&] {
        for (int t = 0; t < 10'000; ++t) {
          const Pid p = gen->next();
          feed.record_step(p);
          checksum += p;
          if (t % 64 != 63) continue;
          for (Pid q = 0; q < params.n; ++q) {
            feed.publish_progress(q, feed.steps_of(q) / 4);
            if (feed.steps_of(q) > 1'000) feed.publish_decided(q);
          }
        }
      });
      EXPECT_EQ(allocs, 0) << info.name << " victims=" << victims;
      EXPECT_NE(checksum, 0) << info.name;
      if (info.kind == ReactiveKind::kBudgetCrasher) {
        EXPECT_EQ(gen->crashes_requested().size(), 2);  // spent in the loop
      }
    }
  }
}

TEST(ReactiveAllocTest, InlineFeedAccessorsRejectOutOfRangePids) {
  ObservationFeed feed(4);
  for (const Pid bad : {-1, 4}) {
    EXPECT_THROW(feed.steps_of(bad), ContractViolation) << bad;
    EXPECT_THROW(feed.progress_of(bad), ContractViolation) << bad;
    EXPECT_THROW(feed.has_progress(bad), ContractViolation) << bad;
    EXPECT_THROW(feed.decided(bad), ContractViolation) << bad;
    EXPECT_THROW(feed.record_step(bad), ContractViolation) << bad;
  }
  EXPECT_EQ(feed.total_steps(), 0);  // the rejected steps left no trace
}

}  // namespace
}  // namespace setlib::sched
