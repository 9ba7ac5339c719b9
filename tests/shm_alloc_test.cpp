// The register substrate's no-allocation contract: reading and writing
// values of up to Value::kInlineWords words never touches the heap.
// This binary replaces the global operator new/delete with counting
// versions (for this executable only) and checks the count stays at
// zero across a hot loop of register operations. The census generation
// contract rides along: the enforcer's next() and fill() allocate
// nothing, and packing straight from a generator allocates its words
// and nothing else.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/sched/analyzer.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/shm/memory.h"
#include "src/shm/process.h"
#include "src/shm/program.h"
#include "src/shm/value.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
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

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
  // The coroutine plumbing (OpRequest, awaiters) carries Values too:
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
