// Unit tests for the shared-memory substrate: values, memory, coroutine
// programs, process runtimes, and the simulator.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/sched/observations.h"
#include "src/sched/schedule.h"
#include "src/shm/memory.h"
#include "src/shm/process.h"
#include "src/shm/program.h"
#include "src/shm/simulator.h"
#include "src/util/assert.h"

namespace setlib::shm {
namespace {

TEST(ValueTest, NilAndFields) {
  const Value nil;
  EXPECT_TRUE(nil.is_nil());
  EXPECT_EQ(nil.as_int_or(-7), -7);
  EXPECT_EQ(nil.at_or(3, 9), 9);

  const Value v = Value::of(1, 2, 3);
  EXPECT_FALSE(v.is_nil());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.at(0), 1);
  EXPECT_EQ(v.at(2), 3);
  EXPECT_EQ(v.at_or(5, -1), -1);
  EXPECT_THROW(v.at(3), ContractViolation);
}

TEST(ValueTest, EqualityAndPrinting) {
  EXPECT_EQ(Value::of(4), Value{4});
  EXPECT_NE(Value::of(4), Value::of(4, 0));
  EXPECT_EQ(Value().to_string(), "_|_");
  EXPECT_EQ(Value::of(1, 2).to_string(), "(1,2)");
}

// Values of every size on both sides of the inline/spill boundary.
Value value_of_size(std::size_t size, std::int64_t salt) {
  std::vector<std::int64_t> words;
  for (std::size_t i = 0; i < size; ++i) {
    words.push_back(salt * 100 + static_cast<std::int64_t>(i));
  }
  return Value(words);
}

TEST(ValueTest, RoundTripsAcrossInlineBoundary) {
  for (std::size_t size = 0; size <= 6; ++size) {
    const Value v = value_of_size(size, 3);
    ASSERT_EQ(v.size(), size);
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_EQ(v.at(i), 300 + static_cast<std::int64_t>(i));
    }
    std::string printed = size == 0 ? "_|_" : "(";
    for (std::size_t i = 0; i < size; ++i) {
      if (i > 0) printed += ',';
      printed += std::to_string(300 + i);
    }
    if (size > 0) printed += ")";
    EXPECT_EQ(v.to_string(), printed);

    Value copy = v;
    EXPECT_EQ(copy, v);
    EXPECT_EQ(copy.to_string(), printed);
    Value moved = std::move(copy);
    EXPECT_EQ(moved, v);
    Value assigned = value_of_size(6 - size, 9);
    EXPECT_NE(assigned, v);
    assigned = v;
    EXPECT_EQ(assigned, v);
    Value move_assigned = Value::of(1, 2);
    move_assigned = std::move(assigned);
    EXPECT_EQ(move_assigned, v);
    EXPECT_EQ(move_assigned.to_string(), printed);
  }
}

TEST(ValueTest, InlineAndSpilledPrefixesDiffer) {
  const Value four = Value::of(1, 2, 3, 4);
  const Value five{1, 2, 3, 4, 5};
  EXPECT_NE(four, five);
  EXPECT_NE(five, four);
  EXPECT_NE(five, (Value{1, 2, 3, 4, 6}));
  EXPECT_EQ(five, (Value{1, 2, 3, 4, 5}));
  EXPECT_EQ(four, (Value{1, 2, 3, 4}));
  EXPECT_NE(Value(), Value::of(0));
}

TEST(ValueTest, MovedFromValueStaysValid) {
  for (const std::size_t size : {2u, 6u}) {
    Value from = value_of_size(size, 1);
    const Value to = std::move(from);
    EXPECT_EQ(to, value_of_size(size, 1));
    // The moved-from state is the contract under test.
    EXPECT_TRUE(from.is_nil());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(from.to_string(), "_|_");
    from = value_of_size(5, 2);
    EXPECT_EQ(from, value_of_size(5, 2));
    Value again = std::move(from);
    from = Value::of(7);
    EXPECT_EQ(from.as_int_or(0), 7);
    EXPECT_EQ(again.size(), 5u);
  }
}

TEST(SimMemoryTest, SnapshotSegmentRoundTrips) {
  // An n = 8 snapshot segment: {seq, value, view[0..7]}, 10 words.
  constexpr int kN = 8;
  std::vector<std::int64_t> words = {41, -5};
  for (int q = 0; q < kN; ++q) words.push_back(q * q);
  SimMemory mem;
  const RegisterId seg = mem.alloc_array("snap.seg", kN);
  mem.write(seg + 3, Value(words));
  const Value back = mem.read(seg + 3);
  ASSERT_EQ(back.size(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(back.at(i), words[i]);
  }
  EXPECT_EQ(back, mem.peek(seg + 3));
  EXPECT_TRUE(mem.read(seg + 2).is_nil());
  mem.write(seg + 3, Value::of(1));
  EXPECT_EQ(mem.read(seg + 3), Value::of(1));
  EXPECT_EQ(mem.name(seg + 7), "snap.seg[7]");
}

TEST(SimMemoryTest, AllocReadWrite) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  EXPECT_EQ(mem.register_count(), 1);
  EXPECT_EQ(mem.name(r), "r");
  EXPECT_TRUE(mem.read(r).is_nil());
  mem.write(r, Value::of(5));
  EXPECT_EQ(mem.read(r).as_int_or(0), 5);
  EXPECT_EQ(mem.read_count(), 2);
  EXPECT_EQ(mem.write_count(), 1);
  EXPECT_EQ(mem.peek(r), Value::of(5));  // peek does not count
  EXPECT_EQ(mem.read_count(), 2);
}

TEST(SimMemoryTest, AllocArrayContiguous) {
  SimMemory mem;
  mem.alloc("pad");
  const RegisterId base = mem.alloc_array("arr", 4);
  EXPECT_EQ(mem.register_count(), 5);
  EXPECT_EQ(mem.name(base), "arr[0]");
  EXPECT_EQ(mem.name(base + 3), "arr[3]");
  EXPECT_THROW(mem.read(99), ContractViolation);
}

// A tiny program: write x, read it back into *out, write x+1.
Prog write_read_write(RegisterId reg, std::int64_t x, std::int64_t* out) {
  co_await write(reg, Value::of(x));
  const Value v = co_await read(reg);
  *out = v.as_int_or(-1);
  co_await write(reg, Value::of(x + 1));
}

TEST(ProgramTest, OneOpPerStep) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  std::int64_t out = 0;
  ProcessRuntime proc(0);
  proc.add_task(write_read_write(r, 10, &out), "wrw");

  EXPECT_FALSE(proc.halted());
  EXPECT_TRUE(proc.step(mem));  // write 10
  EXPECT_EQ(mem.peek(r), Value::of(10));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(proc.step(mem));  // read
  EXPECT_EQ(out, 10);
  EXPECT_TRUE(proc.step(mem));  // write 11
  EXPECT_EQ(mem.peek(r), Value::of(11));
  EXPECT_TRUE(proc.halted());
  EXPECT_FALSE(proc.step(mem));  // halted: no-op step
  EXPECT_EQ(proc.ops_executed(), 3);
}

Prog thrower(RegisterId reg) {
  co_await write(reg, Value::of(1));
  throw std::runtime_error("program bug");
}

TEST(ProgramTest, ExceptionsPropagateToDriver) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  ProcessRuntime proc(0);
  proc.add_task(thrower(r), "thrower");
  // The first step executes the write and resumes into the throw; the
  // exception must surface at the driver, not be swallowed.
  EXPECT_THROW(
      {
        for (int i = 0; i < 3; ++i) proc.step(mem);
      },
      std::runtime_error);
  EXPECT_EQ(mem.peek(r), Value::of(1));  // the write did happen
}

Prog incrementer(RegisterId reg, int times) {
  for (int idx = 0; idx < times; ++idx) {
    const Value v = co_await read(reg);
    co_await write(reg, Value::of(v.as_int_or(0) + 1));
  }
}

TEST(ProcessRuntimeTest, RoundRobinAcrossTasks) {
  SimMemory mem;
  const RegisterId a = mem.alloc("a");
  const RegisterId b = mem.alloc("b");
  ProcessRuntime proc(0);
  proc.add_task(incrementer(a, 2), "inc-a");
  proc.add_task(incrementer(b, 2), "inc-b");
  // 8 ops total, alternating between the two tasks.
  for (int idx = 0; idx < 8; ++idx) EXPECT_TRUE(proc.step(mem));
  EXPECT_TRUE(proc.halted());
  EXPECT_EQ(mem.peek(a), Value::of(2));
  EXPECT_EQ(mem.peek(b), Value::of(2));
}

TEST(ProcessRuntimeTest, FinishedTaskSkipped) {
  SimMemory mem;
  const RegisterId a = mem.alloc("a");
  const RegisterId b = mem.alloc("b");
  ProcessRuntime proc(0);
  proc.add_task(incrementer(a, 1), "short");
  proc.add_task(incrementer(b, 3), "long");
  for (int idx = 0; idx < 8; ++idx) proc.step(mem);
  EXPECT_EQ(mem.peek(a), Value::of(1));
  EXPECT_EQ(mem.peek(b), Value::of(3));
}

TEST(SubProgramPumpTest, ForwardsChildOps) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  std::int64_t seen = -1;
  auto parent = [](RegisterId reg, std::int64_t* out) -> Prog {
    co_await write(reg, Value::of(7));
    co_await incrementer(reg, 2);
    const Value v = co_await read(reg);
    *out = v.as_int_or(0);
  };
  ProcessRuntime proc(0);
  proc.add_task(parent(r, &seen), "parent");
  // Ops: write + (read+write)*2 + read = 6.
  int ops = 0;
  while (!proc.halted() && ops < 20) {
    proc.step(mem);
    ++ops;
  }
  EXPECT_EQ(ops, 6);
  EXPECT_EQ(seen, 9);
}

Prog throwing_child(RegisterId reg, const char* what) {
  co_await write(reg, Value::of(1));
  throw std::runtime_error(what);
}

TEST(ProgramTest, ChildExceptionSurfacesFromStep) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  auto parent = [](RegisterId reg) -> Prog {
    co_await write(reg, Value::of(0));
    co_await throwing_child(reg, "child bug");
    co_await write(reg, Value::of(2));  // never reached
  };
  ProcessRuntime proc(0);
  proc.add_task(parent(r), "parent");
  EXPECT_TRUE(proc.step(mem));  // parent's write; the child starts
  try {
    proc.step(mem);  // the child's write, then its throw
    FAIL() << "the child's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "child bug");
  }
  EXPECT_EQ(mem.peek(r), Value::of(1));
  EXPECT_TRUE(proc.halted());
}

TEST(ProgramTest, ParentCatchesChildException) {
  // co_await child behaves like a call: the caller may handle it.
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  auto parent = [](RegisterId reg) -> Prog {
    bool caught = false;
    try {
      co_await throwing_child(reg, "handled");
    } catch (const std::runtime_error&) {
      caught = true;
    }
    co_await write(reg, Value::of(caught ? 7 : 8));
  };
  ProcessRuntime proc(0);
  proc.add_task(parent(r), "parent");
  EXPECT_TRUE(proc.step(mem));  // the child's write
  EXPECT_TRUE(proc.step(mem));  // the parent's write after the catch
  EXPECT_EQ(mem.peek(r), Value::of(7));
  EXPECT_TRUE(proc.halted());
}

TEST(ProgramTest, NestedChildrenRunOnOneStack) {
  // Three levels deep, every op is still exactly one step of the task.
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  auto middle = [](RegisterId reg) -> Prog {
    co_await incrementer(reg, 1);
    co_await incrementer(reg, 1);
  };
  auto top = [&middle](RegisterId reg) -> Prog {
    co_await middle(reg);
    co_await write(reg, Value::of(100));
    co_await middle(reg);
  };
  ProcessRuntime proc(0);
  proc.add_task(top(r), "top");
  int steps = 0;
  while (proc.step(mem)) ++steps;
  EXPECT_EQ(steps, 4 + 1 + 4);
  EXPECT_EQ(mem.peek(r), Value::of(102));
}

// Writes 1, 2, ..., rounds to reg; *before_first is set before its first
// operation (local computation only).
Prog counting_kid(RegisterId reg, int rounds, bool* before_first) {
  *before_first = true;
  for (int i = 1; i <= rounds; ++i) co_await write(reg, Value::of(i));
}

TEST(FirstOfTest, KidsTakeOneOpEachInTurn) {
  SimMemory mem;
  const RegisterId a = mem.alloc("a");
  const RegisterId b = mem.alloc("b");
  const RegisterId won = mem.alloc("won");
  bool a_started = false;
  bool b_started = false;
  auto racer = [&]() -> Prog {
    Prog kids[] = {counting_kid(a, 100, &a_started),
                   counting_kid(b, 3, &b_started)};
    const std::size_t first = co_await first_of(kids);
    co_await write(won, Value::of(static_cast<std::int64_t>(first)));
  };
  ProcessRuntime proc(0);
  proc.add_task(racer(), "race");
  EXPECT_TRUE(proc.step(mem));  // a := 1; kid b starts in this step
  EXPECT_TRUE(a_started);
  EXPECT_TRUE(b_started);
  EXPECT_TRUE(mem.peek(b).is_nil());
  EXPECT_TRUE(proc.step(mem));  // b := 1
  EXPECT_EQ(mem.peek(b), Value::of(1));
  EXPECT_TRUE(proc.step(mem));  // a := 2
  EXPECT_EQ(mem.peek(a), Value::of(2));
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(proc.step(mem));  // b, a, b
  // b finished on its third write; the caller continues in that step.
  EXPECT_EQ(mem.peek(a), Value::of(3));
  EXPECT_EQ(mem.peek(b), Value::of(3));
  EXPECT_TRUE(proc.step(mem));  // won := 1
  EXPECT_EQ(mem.peek(won), Value::of(1));
  EXPECT_TRUE(proc.halted());
  EXPECT_EQ(mem.peek(a), Value::of(3));  // the loser stayed suspended
}

TEST(FirstOfTest, SingleKidRunsStraightThrough) {
  SimMemory mem;
  const RegisterId a = mem.alloc("a");
  bool started = false;
  auto racer = [&]() -> Prog {
    Prog kids[] = {counting_kid(a, 5, &started)};
    const std::size_t first = co_await first_of(kids);
    co_await write(a, Value::of(10 + static_cast<std::int64_t>(first)));
  };
  ProcessRuntime proc(0);
  proc.add_task(racer(), "race");
  for (int i = 1; i <= 5; ++i) {
    EXPECT_TRUE(proc.step(mem));
    EXPECT_EQ(mem.peek(a), Value::of(i));
  }
  EXPECT_TRUE(proc.step(mem));
  EXPECT_EQ(mem.peek(a), Value::of(10));
  EXPECT_TRUE(proc.halted());
}

TEST(FirstOfTest, KidsMayAwaitChildren) {
  SimMemory mem;
  const RegisterId a = mem.alloc("a");
  const RegisterId b = mem.alloc("b");
  auto kid = [](RegisterId reg, int times) -> Prog {
    co_await incrementer(reg, times);  // 2 ops per increment
  };
  auto racer = [&]() -> Prog {
    Prog kids[] = {kid(a, 10), kid(b, 2)};
    co_await first_of(kids);
  };
  ProcessRuntime proc(0);
  proc.add_task(racer(), "race");
  int steps = 0;
  while (proc.step(mem)) ++steps;
  // b needs 4 ops; a takes one op before each of them.
  EXPECT_EQ(steps, 8);
  EXPECT_EQ(mem.peek(b), Value::of(2));
  EXPECT_EQ(mem.peek(a), Value::of(2));  // 2 reads and 2 writes of a
}

TEST(FirstOfTest, KidExceptionSurfacesFromStep) {
  SimMemory mem;
  const RegisterId a = mem.alloc("a");
  const RegisterId b = mem.alloc("b");
  bool started = false;
  auto racer = [&]() -> Prog {
    Prog kids[] = {counting_kid(a, 100, &started),
                   throwing_child(b, "kid bug")};
    co_await first_of(kids);
  };
  ProcessRuntime proc(0);
  proc.add_task(racer(), "race");
  EXPECT_TRUE(proc.step(mem));  // a := 1
  try {
    proc.step(mem);  // b := 1, then the kid throws
    FAIL() << "the kid's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "kid bug");
  }
  EXPECT_EQ(mem.peek(b), Value::of(1));
  EXPECT_TRUE(proc.halted());
}

TEST(ProgramTest, FrameFreedDuringThreadTeardown) {
  // The thread_local below is constructed before the thread's frame
  // pool registers its drain, so it is destroyed after the drain ran:
  // its frame must bypass the drained pool. (A sanitizer build reports
  // a leak or use-after-free here if it does not.)
  std::thread([] {
    thread_local Prog late;
    late = incrementer(0, 1);
    thread_local Prog early = incrementer(0, 1);  // destroyed before it
    EXPECT_TRUE(late.valid() && early.valid());
  }).join();
}

TEST(ProgramTest, StaticProgDestroyedAfterExit) {
  // Destroyed after the main thread's pool drained at exit.
  static Prog survivor = incrementer(0, 1);
  EXPECT_TRUE(survivor.valid());
}

#if defined(__SANITIZE_ADDRESS__)
#define SETLIB_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SETLIB_TEST_ASAN 1
#endif
#endif

#if defined(SETLIB_TEST_ASAN)
// A frame parked on the free list is poisoned, so a sanitizer build
// still catches use of a destroyed program's frame.
Prog parked(RegisterId reg, volatile char** local) {
  char in_frame = 1;  // lives across the suspension, so in the frame
  *local = &in_frame;
  co_await write(reg, Value::of(in_frame));
  co_await write(reg, Value::of(in_frame));
}

TEST(ProgramDeathTest, RecycledFrameIsPoisoned) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  volatile char* local = nullptr;
  {
    ProcessRuntime proc(0);
    proc.add_task(parked(r, &local), "parked");
    proc.step(mem);
    EXPECT_EQ(*local, 1);
  }
  EXPECT_DEATH((void)*local, "use-after-poison");
}
#endif

TEST(SimulatorTest, RecordsExecutedSchedule) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  Simulator sim(mem, 3);
  for (Pid p = 0; p < 3; ++p) {
    sim.process(p).add_task(incrementer(r, 100), "inc");
  }
  sched::RoundRobinGenerator gen(3);
  EXPECT_EQ(sim.run(gen, 30), 30);
  EXPECT_EQ(sim.executed().size(), 30);
  for (Pid p = 0; p < 3; ++p) EXPECT_EQ(sim.executed().count(p), 10);
}

// The simulator hashes each step as it executes; the streamed hash
// must be the whole-schedule hash on every way a step reaches it.
TEST(SimulatorTest, StreamedHashEqualsScheduleHash) {
  const auto expect_streamed = [](const Simulator& sim, const char* what) {
    EXPECT_EQ(sim.executed_hash(), sched::schedule_hash(sim.executed()))
        << what;
  };
  {
    // Nothing executed yet: the empty schedule's hash.
    SimMemory mem;
    const Simulator sim(mem, 3);
    expect_streamed(sim, "empty");
    EXPECT_EQ(sim.executed_hash(), sched::schedule_hash(sched::Schedule(3)));
  }
  {
    // Block-pulled: fill() blocks cut by stop checks, and a second run
    // on the same simulator.
    SimMemory mem;
    const RegisterId r = mem.alloc("r");
    Simulator sim(mem, 3);
    for (Pid p = 0; p < 3; ++p) {
      sim.process(p).add_task(incrementer(r, 1'000'000), "inc");
    }
    sched::UniformRandomGenerator gen(3, 17);
    sim.run_until(gen, 1'001, [] { return false; }, 50);
    sim.run(gen, 333);
    EXPECT_EQ(sim.steps_taken(), 1'334);
    expect_streamed(sim, "block-pulled");
  }
  {
    // Per-pick: an observation feed and a crash source attached.
    SimMemory mem;
    const RegisterId r = mem.alloc("r");
    Simulator sim(mem, 4);
    for (Pid p = 0; p < 4; ++p) {
      sim.process(p).add_task(incrementer(r, 1'000'000), "inc");
    }
    sched::ObservationFeed feed(4);
    sim.publish_observations(&feed);
    sim.use_crash_source([&feed] {
      return feed.total_steps() >= 200 ? ProcSet::of({2}) : ProcSet();
    });
    sched::UniformRandomGenerator gen(4, 23);
    sim.run(gen, 900);
    EXPECT_TRUE(sim.crashed(2));
    expect_streamed(sim, "per-pick");
  }
  {
    // Picks on crashed processes are skipped, neither recorded nor
    // hashed.
    SimMemory mem;
    const RegisterId r = mem.alloc("r");
    Simulator sim(mem, 4);
    for (Pid p = 0; p < 4; ++p) {
      sim.process(p).add_task(incrementer(r, 1'000'000), "inc");
    }
    sim.use_crash_plan(sched::CrashPlan::at(4, ProcSet::of({1, 3}), 37));
    sim.crash(0);
    sched::UniformRandomGenerator gen(4, 29);
    EXPECT_EQ(sim.run(gen, 500), 500);
    EXPECT_EQ(sim.executed().count(0), 0);
    EXPECT_EQ(sim.executed().count(1, 37, sim.steps_taken()), 0);
    expect_streamed(sim, "crash skips");
  }
}

TEST(SimulatorTest, CrashStopsSteps) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  Simulator sim(mem, 2);
  sim.process(0).add_task(incrementer(r, 1'000), "inc0");
  sim.process(1).add_task(incrementer(r, 1'000), "inc1");
  sim.crash(1);
  sched::RoundRobinGenerator gen(2);
  sim.run(gen, 50);
  EXPECT_EQ(sim.executed().count(1), 0);
  EXPECT_EQ(sim.executed().count(0), 50);
  EXPECT_TRUE(sim.crashed(1));
  EXPECT_EQ(sim.crashed_set(), ProcSet::of({1}));
}

TEST(SimulatorTest, CrashPlanTriggersMidRun) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  Simulator sim(mem, 2);
  sim.process(0).add_task(incrementer(r, 10'000), "inc0");
  sim.process(1).add_task(incrementer(r, 10'000), "inc1");
  sim.use_crash_plan(sched::CrashPlan::at(2, ProcSet::of(1), 20));
  sched::RoundRobinGenerator gen(2);
  sim.run(gen, 100);
  EXPECT_EQ(sim.executed().count(1, 20, sim.executed().size()), 0);
  EXPECT_GT(sim.executed().count(1), 0);
}

// The plan-crash check skips its O(n) scan until the next pending crash
// step; the executed schedule must match a per-step check of every
// process, including a crash at step 0 and a process that never crashes.
TEST(SimulatorTest, CrashPlanMatchesPerStepCheck) {
  constexpr int kN = 3;
  const std::vector<std::int64_t> crash_at = {0, 7,
                                              sched::CrashPlan::kNever};
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  Simulator sim(mem, kN);
  sched::CrashPlan plan(kN);
  for (Pid p = 0; p < kN; ++p) {
    sim.process(p).add_task(incrementer(r, 1'000), "inc");
    if (crash_at[static_cast<std::size_t>(p)] != sched::CrashPlan::kNever) {
      plan.set_crash(p, crash_at[static_cast<std::size_t>(p)]);
    }
  }
  sim.use_crash_plan(plan);
  sched::RoundRobinGenerator gen(kN);
  EXPECT_EQ(sim.run(gen, 40), 40);

  std::vector<Pid> expected;
  ProcSet crashed;
  for (std::int64_t pull = 0; expected.size() < 40; ++pull) {
    for (Pid p = 0; p < kN; ++p) {
      if (crash_at[static_cast<std::size_t>(p)] <=
          static_cast<std::int64_t>(expected.size())) {
        crashed = crashed.with(p);
      }
    }
    const Pid p = static_cast<Pid>(pull % kN);
    if (!crashed.contains(p)) expected.push_back(p);
  }
  EXPECT_EQ(sim.executed().steps(), expected);
  EXPECT_EQ(sim.crashed_set(), ProcSet::of({0, 1}));
}

TEST(SimulatorTest, CrashPlanInstalledMidRun) {
  constexpr int kN = 3;
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  Simulator sim(mem, kN);
  for (Pid p = 0; p < kN; ++p) {
    sim.process(p).add_task(incrementer(r, 1'000), "inc");
  }
  sched::RoundRobinGenerator gen(kN);
  sim.use_crash_plan(sched::CrashPlan::none(kN));
  EXPECT_EQ(sim.run(gen, 10), 10);
  EXPECT_EQ(sim.crashed_set(), ProcSet());

  // Step 5 has already passed: process 0 crashes before the next step.
  sched::CrashPlan plan(kN);
  plan.set_crash(0, 5);
  plan.set_crash(1, 16);
  sim.use_crash_plan(plan);
  EXPECT_EQ(sim.run(gen, 20), 20);
  const sched::Schedule& s = sim.executed();
  EXPECT_EQ(s.count(0, 10, s.size()), 0);
  EXPECT_GT(s.count(1, 10, 16), 0);
  EXPECT_EQ(s.count(1, 16, s.size()), 0);
  EXPECT_EQ(s.count(2, 16, s.size()), s.size() - 16);
  EXPECT_EQ(sim.crashed_set(), ProcSet::of({0, 1}));
}

TEST(SimulatorTest, RunUntilStops) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  Simulator sim(mem, 2);
  sim.process(0).add_task(incrementer(r, 100'000), "inc");
  sim.process(1).add_task(incrementer(r, 100'000), "inc");
  sched::RoundRobinGenerator gen(2);
  const std::int64_t steps = sim.run_until(
      gen, 1'000'000, [&] { return mem.peek(r).as_int_or(0) >= 50; },
      /*check_every=*/1);
  EXPECT_LT(steps, 200);
  EXPECT_GE(mem.peek(r).as_int_or(0), 50);
}

TEST(SimulatorTest, StepAccountingMatchesMemoryCounters) {
  SimMemory mem;
  const RegisterId r = mem.alloc("r");
  Simulator sim(mem, 2);
  sim.process(0).add_task(incrementer(r, 50), "inc");
  sim.process(1).add_task(incrementer(r, 50), "inc");
  sched::RoundRobinGenerator gen(2);
  sim.run(gen, 120);
  EXPECT_EQ(mem.read_count() + mem.write_count(), 120);
}

// The pull contract of run_until: the simulator pulls picks with
// fill() in blocks, and must never read the generator past the last
// pick it executes or skips. Each case runs the block-pulled simulator
// next to the per-pick reference loop below, on a fresh copy of the
// same generator, and checks the executed schedules, the picks pulled,
// and the generator's next picks afterwards.

// Forwards to `inner` (its own fill() included) and counts the picks.
class CountingGenerator final : public sched::ScheduleGenerator {
 public:
  explicit CountingGenerator(std::unique_ptr<sched::ScheduleGenerator> inner)
      : inner_(std::move(inner)) {}
  int n() const override { return inner_->n(); }
  Pid next() override {
    ++pulled_;
    return inner_->next();
  }
  void fill(std::span<Pid> out) override {
    pulled_ += static_cast<std::int64_t>(out.size());
    inner_->fill(out);
  }
  std::int64_t pulled() const noexcept { return pulled_; }

 private:
  std::unique_ptr<sched::ScheduleGenerator> inner_;
  std::int64_t pulled_ = 0;
};

using GeneratorFactory =
    std::function<std::unique_ptr<sched::ScheduleGenerator>()>;

struct PullCase {
  int n = 3;
  std::vector<std::int64_t> crash_at;  // per process; empty = none
  std::vector<std::int64_t> runs;      // max_steps of successive calls
  std::int64_t check_every = 64;
  std::int64_t stop_at = -1;  // stop once the counter reaches it
};

// One simulator with n incrementer processes on one counter.
struct PullRig {
  SimMemory mem;
  RegisterId reg;
  Simulator sim;
  explicit PullRig(int n) : reg(mem.alloc("r")), sim(mem, n) {
    for (Pid p = 0; p < n; ++p) {
      sim.process(p).add_task(incrementer(reg, 1'000'000), "inc");
    }
  }
  bool stopped(std::int64_t stop_at) const {
    return stop_at >= 0 && mem.peek(reg).as_int_or(0) >= stop_at;
  }
};

// The per-pick loop run_until implements: plan crashes fire before a
// pull, a pick on a crashed process is skipped, stop() is checked every
// check_every executed steps, and pulls are capped at 16 * max + 1024.
std::int64_t reference_run(PullRig& rig, sched::ScheduleGenerator& gen,
                           const PullCase& c, std::int64_t max_steps) {
  std::int64_t executed = 0;
  std::int64_t pulls = 0;
  while (executed < max_steps && pulls < 16 * max_steps + 1024) {
    for (Pid p = 0; p < c.n && !c.crash_at.empty(); ++p) {
      if (!rig.sim.crashed(p) &&
          c.crash_at[static_cast<std::size_t>(p)] <= rig.sim.steps_taken()) {
        rig.sim.crash(p);
      }
    }
    if (rig.sim.crashed_set() == ProcSet::universe(c.n)) break;
    const Pid p = gen.next();
    ++pulls;
    if (rig.sim.crashed(p)) continue;
    rig.sim.step_once(p);
    ++executed;
    if (executed % c.check_every == 0 && rig.stopped(c.stop_at)) break;
  }
  return executed;
}

void expect_pull_contract(const PullCase& c, const GeneratorFactory& make,
                          const std::string& what) {
  PullRig blocked(c.n);
  PullRig reference(c.n);
  if (!c.crash_at.empty()) {
    sched::CrashPlan plan(c.n);
    for (Pid p = 0; p < c.n; ++p) {
      const std::int64_t at = c.crash_at[static_cast<std::size_t>(p)];
      if (at != sched::CrashPlan::kNever) plan.set_crash(p, at);
    }
    blocked.sim.use_crash_plan(plan);
  }
  CountingGenerator gen(make());
  CountingGenerator want(make());
  for (const std::int64_t max_steps : c.runs) {
    const std::int64_t ran = blocked.sim.run_until(
        gen, max_steps, [&] { return blocked.stopped(c.stop_at); },
        c.check_every);
    EXPECT_EQ(ran, reference_run(reference, want, c, max_steps)) << what;
    EXPECT_EQ(gen.pulled(), want.pulled()) << what;
  }
  EXPECT_EQ(blocked.sim.executed().steps(), reference.sim.executed().steps())
      << what;
  EXPECT_EQ(blocked.sim.executed_hash(),
            sched::schedule_hash(blocked.sim.executed()))
      << what;
  EXPECT_EQ(blocked.sim.crashed_set(), reference.sim.crashed_set()) << what;
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(gen.next(), want.next()) << what << ", pick " << i;
  }
}

std::vector<std::pair<std::string, GeneratorFactory>> pull_generators(
    int n) {
  return {
      {"uniform",
       [n] { return std::make_unique<sched::UniformRandomGenerator>(n, 5); }},
      {"enforced",
       [n] {
         return sched::EnforcedGenerator::single(
             std::make_unique<sched::UniformRandomGenerator>(n, 9),
             sched::TimelinessConstraint(ProcSet::of(0),
                                         ProcSet::universe(n), 2));
       }},
      {"round-robin",
       [n] { return std::make_unique<sched::RoundRobinGenerator>(n); }},
  };
}

TEST(SimulatorPullTest, StopInTheMiddleOfABlock) {
  // The stop check at 100 executed steps falls inside the second
  // 64-pick block a run without stop checks would pull.
  PullCase c;
  c.runs = {100'000};
  c.check_every = 100;
  c.stop_at = 150;
  for (const auto& [name, make] : pull_generators(c.n)) {
    expect_pull_contract(c, make, name);
  }
}

TEST(SimulatorPullTest, MaxStepsNotAMultipleOfTheBlock) {
  PullCase c;
  c.runs = {1'000};
  for (const auto& [name, make] : pull_generators(c.n)) {
    expect_pull_contract(c, make, name);
  }
}

TEST(SimulatorPullTest, CrashPlanSkips) {
  // Process 1 crashes mid-block, process 2 later; picks on them are
  // skipped, so blocks execute fewer steps than they pull.
  PullCase c;
  c.n = 4;
  c.crash_at = {sched::CrashPlan::kNever, 37, 300, sched::CrashPlan::kNever};
  c.runs = {1'000};
  c.check_every = 50;
  c.stop_at = 700;
  for (const auto& [name, make] : pull_generators(c.n)) {
    expect_pull_contract(c, make, name);
  }
}

TEST(SimulatorPullTest, PullCapWithOnlyCrashedPicks) {
  // Every pick lands on a crashed process: the run executes nothing and
  // stops at exactly 16 * max_steps + 1024 pulls.
  PullCase c;
  c.n = 4;
  c.crash_at = {sched::CrashPlan::kNever, 0, 0, 0};
  c.runs = {10, 3};
  const GeneratorFactory only_crashed = [] {
    return std::make_unique<sched::WeightedRandomGenerator>(
        std::vector<double>{0.0, 1.0, 2.0, 1.0}, 3);
  };
  expect_pull_contract(c, only_crashed, "weighted");

  PullRig rig(c.n);
  rig.sim.use_crash_plan(sched::CrashPlan::at(4, ProcSet::of({1, 2, 3}), 0));
  CountingGenerator gen(only_crashed());
  EXPECT_EQ(rig.sim.run(gen, 10), 0);
  EXPECT_EQ(gen.pulled(), 16 * 10 + 1024);
}

TEST(SimulatorPullTest, BackToBackRunsEqualOneLongerRun) {
  for (const auto& [name, make] : pull_generators(3)) {
    PullRig split(3);
    PullRig whole(3);
    CountingGenerator split_gen(make());
    CountingGenerator whole_gen(make());
    split.sim.run_until(split_gen, 300, [] { return false; });
    split.sim.run_until(split_gen, 701, [] { return false; });
    whole.sim.run_until(whole_gen, 1'001, [] { return false; });
    EXPECT_EQ(split.sim.executed().steps(), whole.sim.executed().steps())
        << name;
    EXPECT_EQ(split_gen.pulled(), 1'001) << name;
    EXPECT_EQ(whole_gen.pulled(), 1'001) << name;
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(split_gen.next(), whole_gen.next()) << name << ", pick " << i;
    }
  }
}

}  // namespace
}  // namespace setlib::shm
