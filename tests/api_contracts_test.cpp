// Precondition coverage across the public API: a library release
// should fail loudly and precisely on misuse, not corrupt state.
#include <gtest/gtest.h>

#include "src/agreement/kset.h"
#include "src/agreement/paxos.h"
#include "src/agreement/trivial.h"
#include "src/bg/bg_sim.h"
#include "src/bg/threads.h"
#include "src/core/engine.h"
#include "src/fd/kantiomega.h"
#include "src/sched/analyzer.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"
#include "src/shm/snapshot.h"
#include "src/util/assert.h"

namespace setlib {
namespace {

TEST(ApiContracts, ScheduleLayer) {
  EXPECT_THROW(sched::Schedule(0), ContractViolation);
  EXPECT_THROW(sched::Schedule(64), ContractViolation);
  EXPECT_THROW(sched::RoundRobinGenerator(0), ContractViolation);
  EXPECT_THROW(sched::UniformRandomGenerator(0, 1), ContractViolation);
  EXPECT_THROW(sched::WeightedRandomGenerator({}, 1), ContractViolation);
  EXPECT_THROW(
      sched::RotatingStarverGenerator(3, ProcSet(), ProcSet::of(1), 1),
      ContractViolation);
  EXPECT_THROW(
      sched::RotatingStarverGenerator(3, ProcSet::of(0), ProcSet(), 0),
      ContractViolation);

  const sched::Schedule s(2, {0, 1});
  EXPECT_THROW(sched::min_timeliness_bound(s, ProcSet::of(0),
                                           ProcSet::of(1), 0, 3),
               ContractViolation);
  const sched::PackedSchedule packed(s);
  EXPECT_THROW(sched::RankedPairScan(packed, 0, 1), ContractViolation);
  EXPECT_THROW(sched::RankedPairScan(packed, 1, 3), ContractViolation);
  EXPECT_THROW(sched::RankedPairScan(packed, 1, 1).count_members(0),
               ContractViolation);
}

TEST(ApiContracts, EnforcerLayer) {
  auto mk_base = [] {
    return std::make_unique<sched::UniformRandomGenerator>(3, 1);
  };
  // bound < 1
  EXPECT_THROW(sched::EnforcedGenerator::single(
                   mk_base(), sched::TimelinessConstraint(
                                  ProcSet::of(0), ProcSet::of(1), 0)),
               ContractViolation);
  // empty timely set
  EXPECT_THROW(sched::EnforcedGenerator::single(
                   mk_base(), sched::TimelinessConstraint(
                                  ProcSet(), ProcSet::of(1), 2)),
               ContractViolation);
  // sets outside the universe
  EXPECT_THROW(sched::EnforcedGenerator::single(
                   mk_base(), sched::TimelinessConstraint(
                                  ProcSet::of(5), ProcSet::of(1), 2)),
               ContractViolation);
  // null base
  EXPECT_THROW(sched::EnforcedGenerator::single(
                   nullptr, sched::TimelinessConstraint(
                                ProcSet::of(0), ProcSet::of(1), 2)),
               ContractViolation);
  // not exactly one constraint
  const sched::TimelinessConstraint c(ProcSet::of(0), ProcSet::of(1), 2);
  EXPECT_THROW(sched::EnforcedGenerator(mk_base(), {},
                                        sched::CrashPlan::none(3)),
               ContractViolation);
  EXPECT_THROW(sched::EnforcedGenerator(mk_base(), {c, c},
                                        sched::CrashPlan::none(3)),
               ContractViolation);
}

TEST(ApiContracts, ShmLayer) {
  shm::SimMemory mem;
  EXPECT_THROW(mem.read(0), ContractViolation);
  EXPECT_THROW(mem.write(-1, shm::Value()), ContractViolation);
  EXPECT_THROW(mem.alloc_array("a", 0), ContractViolation);

  shm::Simulator sim(mem, 2);
  EXPECT_THROW(sim.process(2), ContractViolation);
  EXPECT_THROW(sim.crash(-1), ContractViolation);
  sched::RoundRobinGenerator wrong_n(3);
  EXPECT_THROW(sim.run(wrong_n, 10), ContractViolation);

  EXPECT_THROW(shm::AtomicSnapshot(mem, 0, "s"), ContractViolation);
  shm::AtomicSnapshot snap(mem, 2, "s");
  EXPECT_THROW(snap.segment_reg(2), ContractViolation);
  std::vector<std::int64_t> out;
  EXPECT_THROW(snap.scan(-1, &out), ContractViolation);
}

TEST(ApiContracts, DetectorLayer) {
  shm::SimMemory mem;
  fd::KAntiOmega det(mem, {4, 2, 2, 1});
  EXPECT_THROW(det.view(4), ContractViolation);
  EXPECT_THROW(det.counter_reg(-1, 0), ContractViolation);
  EXPECT_THROW(det.counter_reg(0, 4), ContractViolation);
  EXPECT_THROW(det.heartbeat_reg(4), ContractViolation);
  EXPECT_THROW(det.stabilized(ProcSet(), 4), ContractViolation);
  EXPECT_THROW(det.stabilized(ProcSet::of(0), 0), ContractViolation);
  EXPECT_THROW(det.trusted_candidates(ProcSet::of(0), 0),
               ContractViolation);
  EXPECT_THROW(det.run(7), ContractViolation);
}

TEST(ApiContracts, AgreementLayer) {
  shm::SimMemory mem;
  agreement::PaxosConsensus paxos(mem, 3, "px");
  agreement::PaxosConsensus::Status status;
  EXPECT_THROW(paxos.run(3, 1, [](Pid) { return 0; }, &status),
               ContractViolation);
  EXPECT_THROW(paxos.run(0, 1, nullptr, &status), ContractViolation);
  EXPECT_THROW(paxos.run(0, 1, [](Pid) { return 0; }, nullptr),
               ContractViolation);
  EXPECT_THROW(paxos.block_reg(3), ContractViolation);

  EXPECT_THROW(agreement::TrivialAgreement(mem, 3, 3), ContractViolation);
  agreement::TrivialAgreement trivial(mem, 3, 1);
  EXPECT_THROW(trivial.run(0, 1, nullptr), ContractViolation);
}

TEST(ApiContracts, BgLayer) {
  shm::SimMemory mem;
  bg::SafeAgreement sa(mem, 3, "sa");
  EXPECT_THROW(sa.cell_reg(3), ContractViolation);
  EXPECT_THROW(sa.propose(-1, shm::Value::of(1)), ContractViolation);

  EXPECT_THROW(
      bg::BGSimulation(mem, bg::BGSimulation::Params{0, 3, 4}, nullptr),
      ContractViolation);
  EXPECT_THROW(
      bg::BGSimulation(mem, bg::BGSimulation::Params{2, 3, 0},
                       [](int) {
                         return std::make_unique<bg::ForeverThread>(0);
                       }),
      ContractViolation);
}

TEST(ApiContracts, EngineLayer) {
  core::RunConfig cfg;
  cfg.spec = {2, 1, 4};
  cfg.system = {1, 3, 5};  // n mismatch
  EXPECT_THROW(core::run_agreement(cfg), ContractViolation);

  cfg.system = {1, 3, 4};
  cfg.max_steps = 0;
  EXPECT_THROW(core::run_agreement(cfg), ContractViolation);

  cfg.max_steps = 1'000;
  cfg.proposals = {1, 2};  // wrong size
  EXPECT_THROW(core::run_agreement(cfg), ContractViolation);

  // Rotisserie family requires gap <= t.
  core::RunConfig rot;
  rot.spec = {1, 1, 5};
  rot.system = {1, 4, 5};  // gap 3 > t = 1
  rot.family = core::ScheduleFamily::kRotisserie;
  EXPECT_THROW(core::run_agreement(rot), ContractViolation);
}

}  // namespace
}  // namespace setlib
