// The deterministic step-driven simulator.
//
// Pulls pids from a ScheduleGenerator and executes one step of the
// corresponding ProcessRuntime per pull, recording the *executed*
// schedule (which experiments cross-check with the timeliness analyzer —
// the executed schedule, not the generator's intent, is what Definition
// 1 is evaluated on). Crashed processes take no further steps; pulls
// that land on a crashed process are skipped without being recorded.
#ifndef SETLIB_SHM_SIMULATOR_H
#define SETLIB_SHM_SIMULATOR_H

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sched/generator.h"
#include "src/sched/generators.h"
#include "src/sched/observations.h"
#include "src/sched/schedule.h"
#include "src/shm/memory.h"
#include "src/shm/process.h"
#include "src/util/procset.h"

namespace setlib::shm {

class Simulator {
 public:
  Simulator(IMemory& mem, int n);

  int n() const noexcept { return n_; }
  ProcessRuntime& process(Pid p);

  /// Mark p crashed from now on (takes no further steps).
  void crash(Pid p);
  bool crashed(Pid p) const;
  ProcSet crashed_set() const noexcept { return crashed_; }

  /// Apply a CrashPlan: processes crash when the executed step count
  /// reaches their crash step (checked as the run proceeds).
  void use_crash_plan(const sched::CrashPlan& plan);

  /// Mirror an adversary's crash decisions (ReactiveGenerator::
  /// crashes_requested): the source is polled once per pull, and any
  /// newly requested process is crashed before the next step executes,
  /// so the validator's faulty accounting matches the adversary's
  /// budget spending.
  void use_crash_source(std::function<ProcSet()> source);

  /// Publish every executed step (and every crash) into `feed`, the
  /// read-only view reactive adversaries consume. The feed must
  /// outlive the simulator; pass nullptr to detach. Publication is
  /// part of the deterministic step loop — no wall-clock, no thread
  /// state — so the ObservationFeed determinism contract holds.
  void publish_observations(sched::ObservationFeed* feed);

  /// Execute exactly one step of process p (test hook).
  void step_once(Pid p);

  /// Run `steps` scheduled steps. Returns the number actually executed
  /// (= steps unless every process crashed/halted and pulls were
  /// exhausted).
  std::int64_t run(sched::ScheduleGenerator& gen, std::int64_t steps);

  /// Run until stop() returns true (checked every `check_every` steps)
  /// or max_steps executed. Returns executed steps.
  std::int64_t run_until(sched::ScheduleGenerator& gen,
                         std::int64_t max_steps,
                         const std::function<bool()>& stop,
                         std::int64_t check_every = 64);

  const sched::Schedule& executed() const noexcept { return executed_; }
  std::int64_t steps_taken() const noexcept { return executed_.size(); }

 private:
  bool maybe_crash_per_plan();
  void update_next_plan_crash();
  void maybe_crash_per_source();
  bool execute(Pid p);

  IMemory& mem_;
  int n_;
  std::vector<ProcessRuntime> procs_;
  ProcSet crashed_;
  sched::Schedule executed_;
  std::vector<std::int64_t> plan_crash_steps_;
  // Least plan crash step of a process not yet crashed (kNever if none):
  // before it, maybe_crash_per_plan has nothing to do.
  std::int64_t next_plan_crash_ = sched::CrashPlan::kNever;
  std::function<ProcSet()> crash_source_;
  sched::ObservationFeed* feed_ = nullptr;
};

}  // namespace setlib::shm

#endif  // SETLIB_SHM_SIMULATOR_H
