// Golden op traces: every register operation the protocol stacks
// perform, in step order, hashed and pinned. A StepObserver attached to
// the Simulator folds each step's (register, kind, value) into a 64-bit
// hash, reading the value with SimMemory::peek right after the step;
// the run's final decisions, detector views and executed schedule are
// folded in after the last step. Any change to how
// programs are driven (when a child starts, which multiplexed kid runs
// next, where local computation lands between steps) moves at least
// one of these hashes, so a refactor of the coroutine plumbing that
// keeps every constant here has kept every schedule bit-identical.
// The executed schedule is folded in through sched::schedule_hash, so
// redefining that hash moves every constant here without any trace
// changing; the four-lane redefinition was re-pinned only after the
// old constants still held under the old hash.
//
// An attached observer makes the simulator pull one pick at a time, so
// every scenario also runs a second time with no observer, where
// run_until pulls whole fill() blocks: that run must end in the same
// state (steps, schedule hash, decisions, detector views, read and
// write counts).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
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
#include "src/shm/observer.h"
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

/// Hashes every register operation in step order: the value a step
/// read or wrote is still in its register when on_step runs.
class TraceHash final : public StepObserver {
 public:
  explicit TraceHash(const SimMemory& mem) : mem_(mem) {}

  void on_step(Pid /*p*/, StepOp op) override {
    if (!op) return;
    const std::uint64_t reg = static_cast<std::uint64_t>(op.reg);
    const std::uint64_t kind = op.kind == StepOp::Kind::kRead ? 0 : 1;
    hash_ = mix_value(mix(mix(hash_, reg), kind), mem_.peek(op.reg));
  }
  void on_crash(Pid /*p*/) override {}

  std::uint64_t hash() const noexcept { return hash_; }
  /// Everything folded after the run, in order: its end state.
  const std::vector<std::uint64_t>& folded() const noexcept {
    return folded_;
  }
  void fold(std::uint64_t x) {
    hash_ = mix(hash_, x);
    folded_.push_back(x);
  }
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
  const SimMemory& mem_;
  std::uint64_t hash_ = 0x5e7117b5eedULL;
  std::vector<std::uint64_t> folded_;
};

struct GoldenRun {
  std::uint64_t trace = 0;  // meaningful only when observed
  std::vector<std::uint64_t> end_state;
  std::int64_t reads = 0;
  std::int64_t writes = 0;
};

GoldenRun finish(const TraceHash& trace, const SimMemory& mem) {
  return {trace.hash(), trace.folded(), mem.read_count(), mem.write_count()};
}

/// Runs `scenario` observed and then unobserved (block pulls), checks
/// that both end in the same state, and returns the observed trace.
std::uint64_t trace_and_check_blocks(
    const std::function<GoldenRun(bool observed)>& scenario) {
  const GoldenRun observed = scenario(true);
  const GoldenRun blocks = scenario(false);
  EXPECT_EQ(blocks.end_state, observed.end_state);
  EXPECT_EQ(blocks.reads, observed.reads);
  EXPECT_EQ(blocks.writes, observed.writes);
  return observed.trace;
}

std::unique_ptr<sched::EnforcedGenerator> enforced(int n, int k, int t,
                                                   std::uint64_t seed) {
  return sched::EnforcedGenerator::single(
      std::make_unique<sched::UniformRandomGenerator>(n, seed),
      sched::TimelinessConstraint(ProcSet::range(0, k),
                                  ProcSet::range(0, t + 1), 3));
}

GoldenRun multishot(bool observed, int n, int k, int t, int slots,
                    std::uint64_t seed) {
  SimMemory mem;
  TraceHash trace(mem);
  fd::KAntiOmega detector(mem, fd::KAntiOmega::Params{n, k, t, 1});
  agreement::MultiShotAgreement log(
      mem, agreement::MultiShotAgreement::Params{n, k, t, slots}, &detector);
  Simulator sim(mem, n);
  if (observed) sim.publish_observations(&trace);
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
      trace.fold(static_cast<std::uint64_t>(log.log_at(p, s).value_or(-1)));
    }
  }
  trace.fold_detector(detector, n);
  trace.fold_schedule(sim);
  return finish(trace, mem);
}

TEST(ShmTraceGoldenTest, MultiShotK1) {
  EXPECT_EQ(trace_and_check_blocks([](bool observed) {
              return multishot(observed, 4, 1, 2, 5, 11);
            }),
            0x0982d7bbe0b676abULL);
}

TEST(ShmTraceGoldenTest, MultiShotK2) {
  EXPECT_EQ(trace_and_check_blocks([](bool observed) {
              return multishot(observed, 5, 2, 2, 4, 12);
            }),
            0x99a9b18c813b25a1ULL);
}

TEST(ShmTraceGoldenTest, MultiShotK3) {
  EXPECT_EQ(trace_and_check_blocks([](bool observed) {
              return multishot(observed, 5, 3, 3, 3, 13);
            }),
            0x7f3ce6e660a32b63ULL);
}

GoldenRun kset_agreement(bool observed) {
  const int n = 5, k = 2, t = 2;
  SimMemory mem;
  TraceHash trace(mem);
  fd::KAntiOmega detector(mem, fd::KAntiOmega::Params{n, k, t, 1});
  agreement::KSetAgreement kset(mem, agreement::KSetAgreement::Params{n, k, t},
                                &detector);
  Simulator sim(mem, n);
  if (observed) sim.publish_observations(&trace);
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(detector.run(p), "fd");
    kset.install(sim.process(p), p, 50 + p);
  }
  const ProcSet everyone = ProcSet::universe(n);
  auto gen = enforced(n, k, t, 14);
  sim.run_until(*gen, 400'000, [&] { return kset.all_decided(everyone); });
  EXPECT_TRUE(kset.all_decided(everyone));
  for (Pid p = 0; p < n; ++p) {
    trace.fold(static_cast<std::uint64_t>(kset.outcome(p).value));
    trace.fold(static_cast<std::uint64_t>(kset.outcome(p).via_instance));
  }
  trace.fold_detector(detector, n);
  trace.fold_schedule(sim);
  return finish(trace, mem);
}

TEST(ShmTraceGoldenTest, KSetAgreement) {
  EXPECT_EQ(trace_and_check_blocks(kset_agreement), 0x04b229ca9a1e63e8ULL);
}

Prog snapshot_client(AtomicSnapshot* snap, Pid p, int rounds,
                     std::vector<std::int64_t>* last_scan) {
  for (int r = 1; r <= rounds; ++r) {
    co_await snap->update(p, 10 * p + r);
    co_await snap->scan(p, last_scan);
  }
}

GoldenRun snapshot_scan_and_update(bool observed) {
  const int n = 3;
  SimMemory mem;
  TraceHash trace(mem);
  AtomicSnapshot snap(mem, n, "snap", -1);
  std::vector<std::vector<std::int64_t>> scans(n);
  Simulator sim(mem, n);
  if (observed) sim.publish_observations(&trace);
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(
        snapshot_client(&snap, p, 6, &scans[static_cast<std::size_t>(p)]),
        "snap");
  }
  sched::UniformRandomGenerator gen(n, 15);
  sim.run(gen, 3'000);
  for (const auto& scan : scans) {
    EXPECT_EQ(scan.size(), static_cast<std::size_t>(n));
    for (const std::int64_t v : scan) trace.fold(static_cast<std::uint64_t>(v));
  }
  trace.fold_schedule(sim);
  return finish(trace, mem);
}

TEST(ShmTraceGoldenTest, SnapshotScanAndUpdate) {
  EXPECT_EQ(trace_and_check_blocks(snapshot_scan_and_update),
            0xbe047d7632446641ULL);
}

GoldenRun commit_adopt(bool observed) {
  const int n = 4;
  SimMemory mem;
  TraceHash trace(mem);
  agreement::CommitAdopt ca(mem, n, "ca");
  std::vector<agreement::CommitAdopt::Outcome> outs(n);
  Simulator sim(mem, n);
  if (observed) sim.publish_observations(&trace);
  const std::int64_t proposals[] = {7, 9, 7, 8};
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(
        ca.propose(p, proposals[p], &outs[static_cast<std::size_t>(p)]), "ca");
  }
  sched::UniformRandomGenerator gen(n, 16);
  sim.run(gen, 200);
  for (const auto& o : outs) {
    EXPECT_TRUE(o.done);
    trace.fold(o.committed ? 1 : 0);
    trace.fold(static_cast<std::uint64_t>(o.value));
  }
  trace.fold_schedule(sim);
  return finish(trace, mem);
}

TEST(ShmTraceGoldenTest, CommitAdopt) {
  EXPECT_EQ(trace_and_check_blocks(commit_adopt), 0x767f8704a35ccc08ULL);
}

GoldenRun bg_simulation(bool observed) {
  const int m = 3, threads = 4, horizon = 8;
  SimMemory mem;
  TraceHash trace(mem);
  bg::BGSimulation bgsim(
      mem, bg::BGSimulation::Params{m, threads, horizon},
      [](int u) { return std::make_unique<bg::MinInputThread>(100 + u, 3); });
  Simulator sim(mem, m);
  if (observed) sim.publish_observations(&trace);
  for (Pid i = 0; i < m; ++i) sim.process(i).add_task(bgsim.run(i), "bg");
  sched::UniformRandomGenerator gen(m, 17);
  sim.run(gen, 20'000);
  for (int s = 0; s < m; ++s) {
    for (int u = 0; u < threads; ++u) {
      trace.fold(static_cast<std::uint64_t>(bgsim.steps_of(s, u)));
      trace.fold(static_cast<std::uint64_t>(
          bgsim.thread_decision(s, u).value_or(-1)));
    }
  }
  trace.fold(sched::schedule_hash(bgsim.simulated_schedule()));
  trace.fold_schedule(sim);
  return finish(trace, mem);
}

TEST(ShmTraceGoldenTest, BGSimulation) {
  EXPECT_EQ(trace_and_check_blocks(bg_simulation), 0x79eaa4dccd456a18ULL);
}

}  // namespace
}  // namespace setlib::shm
