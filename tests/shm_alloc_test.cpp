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
// else.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/agreement/multishot.h"
#include "src/fd/kantiomega.h"
#include "src/sched/analyzer.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
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

}  // namespace
}  // namespace setlib::sched
