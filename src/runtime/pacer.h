// The pacer: set-timeliness enforcement on live threads.
//
// The threaded runtime cannot choose the schedule — the OS does — so
// timeliness is enforced with a gate instead: every process thread
// hands each of its steps to step(pid, body). For each configured
// constraint (P timely w.r.t. Q, bound b), a thread in Q \ P is blocked
// (condition-variable wait, CP.42) whenever b - 1 steps of Q have
// already passed since the last P step; it resumes once a P member
// steps. The body (one register operation) runs and is logged under
// the gate's one mutex, so the step log is the linearization of the
// register operations, and it is the schedule the analyzer checks.
//
// Liveness guards: if every member of some constraint's P has
// deactivated (crashed/finished), the constraint is dropped (counted),
// and request_stop() releases all waiters.
#ifndef SETLIB_RUNTIME_PACER_H
#define SETLIB_RUNTIME_PACER_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/sched/enforcer.h"
#include "src/sched/schedule.h"
#include "src/util/procset.h"
#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace setlib::runtime {

class Pacer {
 public:
  Pacer(int n, std::vector<sched::TimelinessConstraint> constraints);

  /// Gate one step of `pid`: blocks while any constraint forbids it,
  /// then runs `body` and logs pid, both under the gate's mutex, so no
  /// other step runs between them. `body` must not call back into the
  /// pacer. Returns false, without running `body`, if the pacer was
  /// stopped while waiting.
  bool step(Pid pid, const std::function<void()>& body);

  /// The thread of `pid` will take no further steps (crash or finish);
  /// waiting threads blocked on pid's set are re-evaluated.
  void deactivate(Pid pid);

  /// Release all waiters and make further step() calls return false.
  void request_stop();
  bool stopped() const;

  std::int64_t steps_taken() const;
  std::int64_t dropped_constraints() const;

  /// Serialized step index at which the first constraint was dropped
  /// (its timely set fully deactivated mid-run). Steps at or past this
  /// index are unpaced — no timeliness is being enforced for that
  /// constraint — so paced-run statistics must cut here. Teardown
  /// drops (after request_stop) are not recorded, matching
  /// dropped_constraints. nullopt while every constraint is live.
  std::optional<std::int64_t> first_drop_step() const;

  /// Every step in the order its body ran: the linearization of the
  /// run's register operations. Call after threads have quiesced.
  sched::Schedule recorded_schedule() const;

 private:
  bool allowed_locked(Pid pid) const SETLIB_REQUIRES(mu_);
  void apply_locked(Pid pid) SETLIB_REQUIRES(mu_);

  struct State {
    sched::TimelinessConstraint c;
    std::int64_t q_steps_since_p = 0;
    bool dropped = false;
  };

  const int n_;
  mutable util::Mutex mu_;
  util::CondVar cv_;
  std::vector<State> states_ SETLIB_GUARDED_BY(mu_);
  ProcSet active_ SETLIB_GUARDED_BY(mu_);
  bool stop_ SETLIB_GUARDED_BY(mu_) = false;
  std::int64_t steps_ SETLIB_GUARDED_BY(mu_) = 0;
  std::int64_t dropped_ SETLIB_GUARDED_BY(mu_) = 0;
  std::optional<std::int64_t> first_drop_step_ SETLIB_GUARDED_BY(mu_);
  std::vector<Pid> log_ SETLIB_GUARDED_BY(mu_);
};

}  // namespace setlib::runtime

#endif  // SETLIB_RUNTIME_PACER_H
