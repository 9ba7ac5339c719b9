// Multi-shot agreement: per-slot k-agreement/validity, replicated-log
// consistency for k = 1, progress with crashes, and detector sharing
// across slots.
#include "src/agreement/multishot.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/fd/kantiomega.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"

namespace setlib::agreement {
namespace {

struct Rig {
  shm::SimMemory mem;
  std::unique_ptr<fd::KAntiOmega> detector;
  std::unique_ptr<MultiShotAgreement> ms;
  std::unique_ptr<shm::Simulator> sim;

  Rig(int n, int k, int t, int slots) {
    detector = std::make_unique<fd::KAntiOmega>(
        mem, fd::KAntiOmega::Params{n, k, t, 1});
    ms = std::make_unique<MultiShotAgreement>(
        mem, MultiShotAgreement::Params{n, k, t, slots}, detector.get());
    sim = std::make_unique<shm::Simulator>(mem, n);
    for (Pid p = 0; p < n; ++p) {
      sim->process(p).add_task(detector->run(p), "fd");
      std::vector<std::int64_t> commands;
      for (int s = 0; s < slots; ++s) {
        commands.push_back(1000 * (p + 1) + s);
      }
      ms->install(sim->process(p), p, std::move(commands));
    }
  }
};

// slot_tally is slot_values' size and smallest element.
void expect_tally_matches(const MultiShotAgreement& ms, int slot,
                          ProcSet who) {
  const auto values = ms.slot_values(slot, who);
  const auto tally = ms.slot_tally(slot, who);
  EXPECT_EQ(tally.distinct, static_cast<int>(values.size())) << slot;
  if (!values.empty()) {
    EXPECT_EQ(tally.smallest, values.front()) << slot;
  }
}

TEST(MultiShotTest, ReplicatedLogForConsensus) {
  const int n = 4, k = 1, t = 2, slots = 6;
  Rig rig(n, k, t, slots);
  sched::RoundRobinGenerator gen(n);
  rig.sim->run_until(gen, 3'000'000, [&] {
    return rig.ms->all_decided(ProcSet::universe(n));
  });
  ASSERT_TRUE(rig.ms->all_decided(ProcSet::universe(n)));
  // k = 1: one value per slot, identical logs at all processes.
  for (int s = 0; s < slots; ++s) {
    const auto values = rig.ms->slot_values(s, ProcSet::universe(n));
    ASSERT_EQ(values.size(), 1u) << "slot " << s;
    // Validity: some process's command for this exact slot.
    EXPECT_EQ(values[0] % 1000, s);
  }
}

TEST(MultiShotTest, KForkingLogStaysWithinK) {
  const int n = 5, k = 2, t = 2, slots = 4;
  Rig rig(n, k, t, slots);
  sched::UniformRandomGenerator gen(n, 7);
  rig.sim->run_until(gen, 4'000'000, [&] {
    return rig.ms->all_decided(ProcSet::universe(n));
  });
  ASSERT_TRUE(rig.ms->all_decided(ProcSet::universe(n)));
  for (int s = 0; s < slots; ++s) {
    const auto values = rig.ms->slot_values(s, ProcSet::universe(n));
    EXPECT_GE(values.size(), 1u);
    EXPECT_LE(values.size(), static_cast<std::size_t>(k)) << "slot " << s;
    for (const auto v : values) EXPECT_EQ(v % 1000, s);
    expect_tally_matches(*rig.ms, s, ProcSet::universe(n));
  }
}

TEST(MultiShotTest, ProgressWithCrashes) {
  const int n = 5, k = 2, t = 2, slots = 4;
  Rig rig(n, k, t, slots);
  const auto plan = sched::CrashPlan::at(n, ProcSet::of({3, 4}), 60'000);
  rig.sim->use_crash_plan(plan);
  auto base = std::make_unique<sched::UniformRandomGenerator>(n, 13);
  std::vector<sched::TimelinessConstraint> constraints{
      sched::TimelinessConstraint(ProcSet::range(0, k),
                                  ProcSet::range(0, t + 1), 3)};
  sched::EnforcedGenerator gen(std::move(base), std::move(constraints),
                               plan);
  const ProcSet correct = plan.faulty().complement(n);
  rig.sim->run_until(gen, 6'000'000,
                     [&] { return rig.ms->all_decided(correct); });
  ASSERT_TRUE(rig.ms->all_decided(correct));
  for (int s = 0; s < slots; ++s) {
    EXPECT_LE(rig.ms->slot_values(s, correct).size(),
              static_cast<std::size_t>(k));
    expect_tally_matches(*rig.ms, s, correct);
  }
}

TEST(MultiShotTest, PrefixGrowsInOrder) {
  const int n = 3, k = 1, t = 1, slots = 5;
  Rig rig(n, k, t, slots);
  sched::RoundRobinGenerator gen(n);
  int last_prefix = 0;
  for (int rounds = 0; rounds < 60; ++rounds) {
    rig.sim->run(gen, 2'000);
    const int prefix = rig.ms->decided_prefix(0);
    EXPECT_GE(prefix, last_prefix);  // prefix only grows
    // Slots decide strictly in order: nothing beyond the prefix.
    for (int s = prefix; s < slots; ++s) {
      EXPECT_FALSE(rig.ms->log_at(0, s).has_value());
    }
    for (int s = 0; s < slots; ++s) {
      expect_tally_matches(*rig.ms, s, ProcSet::universe(n));
    }
    last_prefix = prefix;
  }
  EXPECT_EQ(last_prefix, slots);
}

TEST(MultiShotTest, ValidatesParams) {
  shm::SimMemory mem;
  fd::KAntiOmega det(mem, {4, 1, 2, 1});
  EXPECT_THROW(MultiShotAgreement(
                   mem, MultiShotAgreement::Params{4, 1, 2, 0}, &det),
               ContractViolation);
  EXPECT_THROW(MultiShotAgreement(
                   mem, MultiShotAgreement::Params{4, 2, 2, 3}, &det),
               ContractViolation);  // k mismatch with detector
}

}  // namespace
}  // namespace setlib::agreement
