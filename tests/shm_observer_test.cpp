// The simulator's step seam (src/shm/observer.h): an attached
// StepObserver sees every executed step, after its register operation,
// with the operation's kind and register, and every crash once. Each
// case runs counter processes whose every step is known in advance
// (reads on even steps, writes on odd ones, nothing once done), so the
// observed stream is checked step by step against that reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/agreement/kset.h"
#include "src/fd/kantiomega.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/sched/observations.h"
#include "src/sched/reactive.h"
#include "src/shm/memory.h"
#include "src/shm/observer.h"
#include "src/shm/program.h"
#include "src/shm/simulator.h"

namespace setlib::shm {
namespace {

/// `times` increments of `reg`: a read, then a write of one more.
Prog counter(RegisterId reg, int times) {
  for (int i = 0; i < times; ++i) {
    const Value v = co_await read(reg);
    co_await write(reg, Value::of(v.as_int_or(0) + 1));
  }
}

/// Records every step and crash, reading each step's value with peek,
/// and forwards both to `forward` (for a reactive adversary's feed).
class Recorder final : public StepObserver {
 public:
  struct Seen {
    Pid pid;
    StepOp op;
    std::int64_t value;  // the register after the step; -1 without an op
  };

  explicit Recorder(const SimMemory& mem, StepObserver* forward = nullptr)
      : mem_(mem), forward_(forward) {}

  void on_step(Pid p, StepOp op) override {
    std::int64_t value = -1;
    if (op) {
      ++(op.kind == StepOp::Kind::kRead ? reads : writes);
      value = mem_.peek(op.reg).as_int_or(0);
      // The operation has been performed when the observer hears of it.
      if (mem_.read_count() != reads || mem_.write_count() != writes) {
        ++counts_ahead_of_memory;
      }
    }
    steps.push_back(Seen{p, op, value});
    if (forward_ != nullptr) forward_->on_step(p, op);
  }
  void on_crash(Pid p) override {
    crashes.push_back(p);
    if (forward_ != nullptr) forward_->on_crash(p);
  }

  std::vector<Seen> steps;
  std::vector<Pid> crashes;
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  std::int64_t counts_ahead_of_memory = 0;

 private:
  const SimMemory& mem_;
  StepObserver* forward_;
};

/// n counter processes, process p incrementing its own register
/// times[p] times, with a Recorder attached.
struct CounterRig {
  CounterRig(int n, std::vector<int> counter_times, StepObserver* forward)
      : times(std::move(counter_times)), sim(mem, n), recorder(mem, forward) {
    for (Pid p = 0; p < n; ++p) {
      regs.push_back(mem.alloc(RegisterName("c", p)));
      sim.process(p).add_task(
          counter(regs.back(), times[static_cast<std::size_t>(p)]), "count");
    }
    sim.publish_observations(&recorder);
  }

  /// Every observed step against the executed schedule and the counter
  /// reference, and every crash exactly once.
  void expect_observed_everything() const {
    ASSERT_EQ(static_cast<std::int64_t>(recorder.steps.size()),
              sim.steps_taken());
    EXPECT_EQ(recorder.reads, mem.read_count());
    EXPECT_EQ(recorder.writes, mem.write_count());
    EXPECT_EQ(recorder.counts_ahead_of_memory, 0);
    std::vector<std::int64_t> taken(regs.size(), 0);
    for (std::size_t i = 0; i < recorder.steps.size(); ++i) {
      const Recorder::Seen& seen = recorder.steps[i];
      const Pid p = sim.executed()[static_cast<std::int64_t>(i)];
      ASSERT_EQ(seen.pid, p) << "step " << i;
      const auto slot = static_cast<std::size_t>(p);
      const std::int64_t j = taken[slot]++;  // p's own step index
      if (j >= 2 * times[slot]) {
        EXPECT_FALSE(seen.op) << "step " << i << ": p" << p << " is done";
        continue;
      }
      EXPECT_EQ(seen.op.kind,
                j % 2 == 0 ? StepOp::Kind::kRead : StepOp::Kind::kWrite)
          << "step " << i;
      EXPECT_EQ(seen.op.reg, regs[slot]) << "step " << i;
      EXPECT_EQ(seen.value, j / 2 + j % 2) << "step " << i;
    }
    std::vector<Pid> crashed;
    sim.crashed_set().for_each([&](Pid p) { crashed.push_back(p); });
    std::vector<Pid> heard = recorder.crashes;
    std::sort(heard.begin(), heard.end());
    EXPECT_EQ(heard, crashed);
  }

  std::vector<int> times;
  std::vector<RegisterId> regs;
  SimMemory mem;
  Simulator sim;
  Recorder recorder;
};

TEST(SimulatorObserverTest, EnforcedRunWithACrashPlan) {
  constexpr int kN = 5;
  CounterRig rig(kN, {40, 25, 1'000, 1'000, 0}, nullptr);
  rig.sim.use_crash_plan(sched::CrashPlan::at(kN, ProcSet::of({1, 3}), 37));
  auto gen = sched::EnforcedGenerator::single(
      std::make_unique<sched::UniformRandomGenerator>(kN, 41),
      sched::TimelinessConstraint(ProcSet::of({0}), ProcSet::universe(kN),
                                  3));
  rig.sim.run_until(*gen, 900, [&] { return rig.sim.steps_taken() >= 600; });
  EXPECT_EQ(rig.sim.steps_taken(), 640);  // the first check at or past 600
  // Crashing a crashed process again is silent; a new crash is heard
  // once however often it is requested.
  rig.sim.crash(1);
  rig.sim.crash(2);
  rig.sim.crash(2);
  rig.sim.run(*gen, 200);
  EXPECT_EQ(rig.sim.crashed_set(), ProcSet::of({1, 2, 3}));
  rig.expect_observed_everything();
}

TEST(SimulatorObserverTest, ReactiveBudgetCrasherWithItsCrashSource) {
  constexpr int kN = 4;
  sched::ReactiveParams params;
  params.n = kN;
  params.stretch = 16;
  params.crash_budget = 2;
  const auto gen = sched::make_reactive(sched::ReactiveKind::kBudgetCrasher,
                                        params, 5);
  // The adversary reads its feed, so the recorder forwards to it.
  CounterRig rig(kN, {1'000, 1'000, 30, 1'000}, gen->feed_ptr().get());
  rig.sim.use_crash_source([g = gen.get()] { return g->crashes_requested(); });
  EXPECT_EQ(rig.sim.run(*gen, 1'500), 1'500);
  EXPECT_EQ(rig.sim.crashed_set().size(), 2);
  EXPECT_EQ(rig.sim.crashed_set(), gen->crashes_requested());
  EXPECT_EQ(gen->feed().total_steps(), rig.sim.steps_taken());
  rig.sim.crash(rig.sim.crashed_set().nth(0));  // already crashed
  rig.expect_observed_everything();
}

TEST(SimulatorObserverTest, StepOnce) {
  CounterRig rig(3, {1, 2, 0}, nullptr);
  rig.sim.crash(1);
  rig.sim.step_once(0);  // read
  rig.sim.step_once(0);  // write
  rig.sim.step_once(0);  // done: a step without an operation
  rig.sim.step_once(1);  // crashed: no step at all
  rig.sim.step_once(2);  // a task that ends before any operation
  EXPECT_EQ(rig.sim.steps_taken(), 4);
  EXPECT_EQ(rig.recorder.steps.size(), 4u);
  EXPECT_FALSE(rig.recorder.steps[2].op);
  EXPECT_FALSE(rig.recorder.steps[3].op);
  rig.expect_observed_everything();
}

// What the run leaves behind, to compare a run with an observer
// attached against the same run without one.
struct RunFacts {
  std::vector<Pid> executed;
  std::uint64_t hash = 0;
  std::int64_t witness_bound = 0;
  std::vector<Value> registers;
  std::int64_t reads = 0;
  std::int64_t writes = 0;
};

/// Detector plus k-set agreement on an oblivious enforced schedule,
/// run until every process decides; `observed` attaches a Recorder.
RunFacts kset_run(bool observed) {
  constexpr int kN = 5, kK = 2, kT = 2;
  SimMemory mem;
  fd::KAntiOmega detector(mem, fd::KAntiOmega::Params{kN, kK, kT, 1});
  agreement::KSetAgreement kset(
      mem, agreement::KSetAgreement::Params{kN, kK, kT}, &detector);
  Simulator sim(mem, kN);
  Recorder recorder(mem);
  if (observed) sim.publish_observations(&recorder);
  for (Pid p = 0; p < kN; ++p) {
    sim.process(p).add_task(detector.run(p), "fd");
    kset.install(sim.process(p), p, 50 + p);
  }
  const ProcSet timely = ProcSet::range(0, kK);
  const ProcSet observers = ProcSet::range(0, kT + 1);
  sim.watch(timely, observers);
  auto gen = sched::EnforcedGenerator::single(
      std::make_unique<sched::UniformRandomGenerator>(kN, 14),
      sched::TimelinessConstraint(timely, observers, 3));
  const ProcSet everyone = ProcSet::universe(kN);
  sim.run_until(*gen, 400'000, [&] { return kset.all_decided(everyone); });
  EXPECT_TRUE(kset.all_decided(everyone));

  RunFacts facts;
  facts.executed = sim.executed().steps();
  facts.hash = sim.executed_hash();
  facts.witness_bound = sim.witness_bound();
  for (RegisterId r = 0; r < mem.register_count(); ++r) {
    facts.registers.push_back(mem.peek(r));
  }
  facts.reads = mem.read_count();
  facts.writes = mem.write_count();
  if (observed) {
    EXPECT_EQ(static_cast<std::int64_t>(recorder.steps.size()),
              sim.steps_taken());
    EXPECT_EQ(recorder.reads, facts.reads);
    EXPECT_EQ(recorder.writes, facts.writes);
  }
  return facts;
}

TEST(SimulatorObserverTest, ObliviousRunIsTheSameWithAnObserver) {
  const RunFacts plain = kset_run(false);
  const RunFacts observed = kset_run(true);
  EXPECT_GT(plain.executed.size(), 64u);
  EXPECT_EQ(observed.executed, plain.executed);
  EXPECT_EQ(observed.hash, plain.hash);
  EXPECT_EQ(observed.witness_bound, plain.witness_bound);
  EXPECT_TRUE(observed.registers == plain.registers);
  EXPECT_EQ(observed.reads, plain.reads);
  EXPECT_EQ(observed.writes, plain.writes);
}

}  // namespace
}  // namespace setlib::shm
