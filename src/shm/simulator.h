// The deterministic step-driven simulator.
//
// Pulls pids from a ScheduleGenerator and executes one step of the
// corresponding ProcessRuntime per pick, recording the *executed*
// schedule (the executed schedule, not the generator's intent, is what
// Definition 1 is evaluated on). Beside the record it streams two facts
// as each step executes, so reading them walks no schedule: the replay
// hash (sched::ScheduleHasher) and the witness bound of one watched
// (P, Q) pair (sched::BoundTracker, the bound the engine reports).
// Crashed processes take no further steps; picks that land on a crashed
// process are skipped without being recorded, hashed or bounded. An
// attached StepObserver (observer.h) sees every executed step, after
// its register operation, and every crash, once per process.
//
// Picks are pulled with fill() in blocks of at most kBlock. A block
// ends at the next stop check, the next crash-plan step, max_steps and
// the pull cap, so no check falls inside one and the generator is read
// exactly as far as the run consumes: after run_until, an oblivious
// generator stands where the same number of next() calls leaves it.
// A run with an observer or a crash source attached pulls one pick at
// a time, so the observer has seen each step before the next pick is
// pulled: a reactive adversary reads its ObservationFeed (an observer),
// and may request a crash, after every step.
#ifndef SETLIB_SHM_SIMULATOR_H
#define SETLIB_SHM_SIMULATOR_H

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/sched/analyzer.h"
#include "src/sched/generator.h"
#include "src/sched/generators.h"
#include "src/sched/schedule.h"
#include "src/shm/memory.h"
#include "src/shm/observer.h"
#include "src/shm/process.h"
#include "src/util/procset.h"

namespace setlib::shm {

class Simulator {
 public:
  Simulator(SimMemory& mem, int n);

  int n() const noexcept { return n_; }
  ProcessRuntime& process(Pid p);

  /// Mark p crashed from now on (takes no further steps). The observer
  /// hears of it the first time only.
  void crash(Pid p);
  bool crashed(Pid p) const;
  ProcSet crashed_set() const noexcept { return crashed_; }

  /// Apply a CrashPlan: processes crash when the executed step count
  /// reaches their crash step (checked as the run proceeds).
  void use_crash_plan(const sched::CrashPlan& plan);

  /// Mirror an adversary's crash decisions (ReactiveGenerator::
  /// crashes_requested): the source is polled once per pick, and any
  /// newly requested process is crashed before the next step executes,
  /// so the validator's faulty accounting matches the adversary's
  /// budget spending.
  void use_crash_source(std::function<ProcSet()> source);

  /// Report every executed step and every crash to `observer` (for a
  /// reactive adversary, its sched::ObservationFeed). It must outlive
  /// the simulator; pass nullptr to detach. Observation is part of the
  /// deterministic step loop — no wall-clock, no thread state — so the
  /// ObservationFeed determinism contract holds.
  void publish_observations(StepObserver* observer);

  /// Streams min_timeliness_bound(executed(), p, q) from the next step
  /// on; call before the first step. Until then the watched pair is
  /// empty, whose bound is 1.
  void watch(ProcSet p, ProcSet q);

  /// Execute exactly one step of process p (test hook).
  void step_once(Pid p);

  /// Run `steps` scheduled steps. Returns the number actually executed
  /// (= steps unless every process crashed/halted and pulls were
  /// exhausted).
  std::int64_t run(sched::ScheduleGenerator& gen, std::int64_t steps);

  /// Run until stop() returns true (checked every `check_every` steps)
  /// or max_steps executed. Returns executed steps. Pulls at most
  /// 16 * max_steps + 1024 picks, and no pick past the last one it
  /// executes or skips (a program that throws mid-block is the one
  /// exception: the rest of its block is dropped).
  std::int64_t run_until(sched::ScheduleGenerator& gen,
                         std::int64_t max_steps,
                         const std::function<bool()>& stop,
                         std::int64_t check_every = 64);

  const sched::Schedule& executed() const noexcept { return executed_; }
  std::int64_t steps_taken() const noexcept { return executed_.size(); }
  /// schedule_hash(executed()), streamed: each step is hashed as it
  /// executes, so reading it walks no schedule.
  std::uint64_t executed_hash() const noexcept { return hasher_.finish(n_); }
  /// min_timeliness_bound(executed(), p, q) of the watch()ed pair,
  /// streamed like the hash.
  std::int64_t witness_bound() const noexcept { return tracker_.bound(); }

 private:
  /// Executed-schedule capacity taken at the first run_until (steps).
  static constexpr std::int64_t kFirstReserve = 1024;
  /// Most picks run_until pulls with one fill().
  static constexpr std::int64_t kBlock = 64;

  void maybe_crash_per_plan();
  void update_next_plan_crash();
  void maybe_crash_per_source();
  bool execute(Pid p);

  SimMemory& mem_;
  int n_;
  std::vector<ProcessRuntime> procs_;
  ProcSet crashed_;
  sched::Schedule executed_;
  sched::ScheduleHasher hasher_;  // fed with every step of executed_
  sched::BoundTracker tracker_;   // likewise
  std::array<std::int64_t, kMaxProcs> plan_crash_steps_;  // first n_ used
  // Least plan crash step of a process not yet crashed (kNever if none):
  // before it, maybe_crash_per_plan has nothing to do.
  std::int64_t next_plan_crash_ = sched::CrashPlan::kNever;
  std::function<ProcSet()> crash_source_;
  StepObserver* observer_ = nullptr;
};

}  // namespace setlib::shm

#endif  // SETLIB_SHM_SIMULATOR_H
