// Set-timeliness enforcement (the constructive side of S^i_{j,n}).
//
// TimelinessConstraint says: set P must be timely with respect to set Q
// with bound b, i.e. no window of the emitted schedule may contain b
// steps of Q without a step of P (Definition 1). EnforcedGenerator wraps
// a base generator and substitutes a step of P (rotating through P's
// alive members) whenever emitting the base's choice would complete a
// P-free window with b steps of Q.
//
// With several overlapping constraints the enforcer is best-effort
// (constraints are applied in order, and a substitution for one may feed
// another); experiments therefore always cross-check the *executed*
// schedule with the analyzer, which is the ground truth.
#ifndef SETLIB_SCHED_ENFORCER_H
#define SETLIB_SCHED_ENFORCER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sched/generator.h"
#include "src/sched/generators.h"
#include "src/util/procset.h"

namespace setlib::sched {

struct TimelinessConstraint {
  ProcSet timely_set;   // P
  ProcSet observed_set; // Q
  std::int64_t bound;   // b >= 1

  TimelinessConstraint(ProcSet p, ProcSet q, std::int64_t b)
      : timely_set(p), observed_set(q), bound(b) {}
};

class EnforcedGenerator final : public ScheduleGenerator {
 public:
  /// `plan` marks which processes crash when; a constraint whose timely
  /// set has fully crashed is dropped from that point on (and counted in
  /// dropped_constraints()).
  EnforcedGenerator(std::unique_ptr<ScheduleGenerator> base,
                    std::vector<TimelinessConstraint> constraints,
                    CrashPlan plan);

  /// Convenience factory: single constraint, no crashes.
  static std::unique_ptr<EnforcedGenerator> single(
      std::unique_ptr<ScheduleGenerator> base,
      TimelinessConstraint constraint);

  int n() const override { return base_->n(); }
  Pid next() override;

  /// Number of substituted steps so far (how often the enforcer had to
  /// override the base generator).
  std::int64_t substitutions() const noexcept { return substitutions_; }

  /// How many times a constraint could not be maintained because its
  /// timely set had fully crashed.
  std::int64_t dropped_constraints() const noexcept { return dropped_; }

  const CrashPlan& plan() const noexcept { return plan_; }

 private:
  struct State {
    TimelinessConstraint c;
    std::int64_t q_steps_since_p = 0;
    int rotate = 0;  // round-robin cursor into P's members
  };

  Pid pick_substitute(State& st, ProcSet alive);

  std::unique_ptr<ScheduleGenerator> base_;
  std::vector<State> states_;
  CrashPlan plan_;
  // plan_.alive_at(emitted_), valid while emitted_ < alive_until_ (the
  // plan's next crash step).
  ProcSet alive_;
  std::int64_t alive_until_ = 0;
  std::int64_t emitted_ = 0;
  std::int64_t substitutions_ = 0;
  std::int64_t dropped_ = 0;
};

}  // namespace setlib::sched

#endif  // SETLIB_SCHED_ENFORCER_H
