// Golden op traces: every register operation the protocol stacks
// perform, in step order, hashed and pinned. A recording IMemory wraps
// the SimMemory and folds each (register, kind, value) into a 64-bit
// hash; the run's final decisions, detector views and executed
// schedule are folded in after the last step. Any change to how
// programs are driven (when a child starts, which multiplexed kid runs
// next, where local computation lands between steps) moves at least
// one of these hashes, so a refactor of the coroutine plumbing that
// keeps every constant here has kept every schedule bit-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/agreement/commit_adopt.h"
#include "src/agreement/kset.h"
#include "src/agreement/multishot.h"
#include "src/bg/bg_sim.h"
#include "src/bg/threads.h"
#include "src/fd/kantiomega.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/sched/schedule.h"
#include "src/shm/memory.h"
#include "src/shm/program.h"
#include "src/shm/simulator.h"
#include "src/shm/snapshot.h"

namespace setlib::shm {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 29);
}

std::uint64_t mix_value(std::uint64_t h, const Value& v) {
  h = mix(h, v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    h = mix(h, static_cast<std::uint64_t>(v.at(i)));
  }
  return h;
}

/// Forwards to a SimMemory and hashes every operation in order.
class RecordingMemory final : public IMemory {
 public:
  RegisterId alloc(std::string_view name) override {
    return inner_.alloc(name);
  }
  RegisterId alloc_array(std::string_view name, std::int64_t count) override {
    return inner_.alloc_array(name, count);
  }
  Value read(RegisterId reg) override {
    Value v = inner_.read(reg);
    hash_ = mix_value(mix(mix(hash_, static_cast<std::uint64_t>(reg)), 0), v);
    return v;
  }
  void write(RegisterId reg, Value v) override {
    hash_ = mix_value(mix(mix(hash_, static_cast<std::uint64_t>(reg)), 1), v);
    inner_.write(reg, std::move(v));
  }
  std::int64_t register_count() const override {
    return inner_.register_count();
  }
  std::string name(RegisterId reg) const override { return inner_.name(reg); }
  std::int64_t read_count() const override { return inner_.read_count(); }
  std::int64_t write_count() const override { return inner_.write_count(); }

  std::uint64_t hash() const noexcept { return hash_; }
  void fold(std::uint64_t x) { hash_ = mix(hash_, x); }
  void fold_schedule(const Simulator& sim) {
    fold(static_cast<std::uint64_t>(sim.steps_taken()));
    fold(sched::schedule_hash(sim.executed()));
  }
  void fold_detector(const fd::KAntiOmega& detector, int n) {
    for (Pid p = 0; p < n; ++p) {
      const fd::KAntiOmega::View& v = detector.view(p);
      fold(v.winnerset.mask());
      fold(static_cast<std::uint64_t>(v.iterations));
      fold(static_cast<std::uint64_t>(v.winnerset_changes));
    }
  }

 private:
  SimMemory inner_;
  std::uint64_t hash_ = 0x5e7117b5eedULL;
};

std::unique_ptr<sched::EnforcedGenerator> enforced(int n, int k, int t,
                                                   std::uint64_t seed) {
  return sched::EnforcedGenerator::single(
      std::make_unique<sched::UniformRandomGenerator>(n, seed),
      sched::TimelinessConstraint(ProcSet::range(0, k),
                                  ProcSet::range(0, t + 1), 3));
}

std::uint64_t multishot_trace(int n, int k, int t, int slots,
                              std::uint64_t seed) {
  RecordingMemory mem;
  fd::KAntiOmega detector(mem, fd::KAntiOmega::Params{n, k, t, 1});
  agreement::MultiShotAgreement log(
      mem, agreement::MultiShotAgreement::Params{n, k, t, slots}, &detector);
  Simulator sim(mem, n);
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(detector.run(p), "fd");
    std::vector<std::int64_t> commands;
    for (int s = 0; s < slots; ++s) commands.push_back(100 * (p + 1) + s);
    log.install(sim.process(p), p, std::move(commands));
  }
  const ProcSet everyone = ProcSet::universe(n);
  auto gen = enforced(n, k, t, seed);
  sim.run_until(*gen, 400'000, [&] { return log.all_decided(everyone); });
  EXPECT_TRUE(log.all_decided(everyone));
  for (Pid p = 0; p < n; ++p) {
    for (int s = 0; s < slots; ++s) {
      mem.fold(static_cast<std::uint64_t>(log.log_at(p, s).value_or(-1)));
    }
  }
  mem.fold_detector(detector, n);
  mem.fold_schedule(sim);
  return mem.hash();
}

TEST(ShmTraceGoldenTest, MultiShotK1) {
  EXPECT_EQ(multishot_trace(4, 1, 2, 5, 11), 0xf89a8697be6f09fbULL);
}

TEST(ShmTraceGoldenTest, MultiShotK2) {
  EXPECT_EQ(multishot_trace(5, 2, 2, 4, 12), 0xfa577a10fdf7791eULL);
}

TEST(ShmTraceGoldenTest, MultiShotK3) {
  EXPECT_EQ(multishot_trace(5, 3, 3, 3, 13), 0x12d6de070ca177dcULL);
}

TEST(ShmTraceGoldenTest, KSetAgreement) {
  const int n = 5, k = 2, t = 2;
  RecordingMemory mem;
  fd::KAntiOmega detector(mem, fd::KAntiOmega::Params{n, k, t, 1});
  agreement::KSetAgreement kset(mem, agreement::KSetAgreement::Params{n, k, t},
                                &detector);
  Simulator sim(mem, n);
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(detector.run(p), "fd");
    kset.install(sim.process(p), p, 50 + p);
  }
  const ProcSet everyone = ProcSet::universe(n);
  auto gen = enforced(n, k, t, 14);
  sim.run_until(*gen, 400'000, [&] { return kset.all_decided(everyone); });
  ASSERT_TRUE(kset.all_decided(everyone));
  for (Pid p = 0; p < n; ++p) {
    mem.fold(static_cast<std::uint64_t>(kset.outcome(p).value));
    mem.fold(static_cast<std::uint64_t>(kset.outcome(p).via_instance));
  }
  mem.fold_detector(detector, n);
  mem.fold_schedule(sim);
  EXPECT_EQ(mem.hash(), 0xaf36c48ba5359403ULL);
}

Prog snapshot_client(AtomicSnapshot* snap, Pid p, int rounds,
                     std::vector<std::int64_t>* last_scan) {
  for (int r = 1; r <= rounds; ++r) {
    co_await snap->update(p, 10 * p + r);
    co_await snap->scan(p, last_scan);
  }
}

TEST(ShmTraceGoldenTest, SnapshotScanAndUpdate) {
  const int n = 3;
  RecordingMemory mem;
  AtomicSnapshot snap(mem, n, "snap", -1);
  std::vector<std::vector<std::int64_t>> scans(n);
  Simulator sim(mem, n);
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(
        snapshot_client(&snap, p, 6, &scans[static_cast<std::size_t>(p)]),
        "snap");
  }
  sched::UniformRandomGenerator gen(n, 15);
  sim.run(gen, 3'000);
  for (const auto& scan : scans) {
    ASSERT_EQ(scan.size(), static_cast<std::size_t>(n));
    for (const std::int64_t v : scan) mem.fold(static_cast<std::uint64_t>(v));
  }
  mem.fold_schedule(sim);
  EXPECT_EQ(mem.hash(), 0xc75d3a2896e6731fULL);
}

TEST(ShmTraceGoldenTest, CommitAdopt) {
  const int n = 4;
  RecordingMemory mem;
  agreement::CommitAdopt ca(mem, n, "ca");
  std::vector<agreement::CommitAdopt::Outcome> outs(n);
  Simulator sim(mem, n);
  const std::int64_t proposals[] = {7, 9, 7, 8};
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(
        ca.propose(p, proposals[p], &outs[static_cast<std::size_t>(p)]), "ca");
  }
  sched::UniformRandomGenerator gen(n, 16);
  sim.run(gen, 200);
  for (const auto& o : outs) {
    ASSERT_TRUE(o.done);
    mem.fold(o.committed ? 1 : 0);
    mem.fold(static_cast<std::uint64_t>(o.value));
  }
  mem.fold_schedule(sim);
  EXPECT_EQ(mem.hash(), 0x36e565bee89409b0ULL);
}

TEST(ShmTraceGoldenTest, BGSimulation) {
  const int m = 3, threads = 4, horizon = 8;
  RecordingMemory mem;
  bg::BGSimulation bgsim(
      mem, bg::BGSimulation::Params{m, threads, horizon},
      [](int u) { return std::make_unique<bg::MinInputThread>(100 + u, 3); });
  Simulator sim(mem, m);
  for (Pid i = 0; i < m; ++i) sim.process(i).add_task(bgsim.run(i), "bg");
  sched::UniformRandomGenerator gen(m, 17);
  sim.run(gen, 20'000);
  for (int s = 0; s < m; ++s) {
    for (int u = 0; u < threads; ++u) {
      mem.fold(static_cast<std::uint64_t>(bgsim.steps_of(s, u)));
      mem.fold(static_cast<std::uint64_t>(
          bgsim.thread_decision(s, u).value_or(-1)));
    }
  }
  mem.fold(sched::schedule_hash(bgsim.simulated_schedule()));
  mem.fold_schedule(sim);
  EXPECT_EQ(mem.hash(), 0x0a72d5c64c72ad34ULL);
}

}  // namespace
}  // namespace setlib::shm
