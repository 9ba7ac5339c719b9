// Set-timeliness enforcement (the constructive side of S^i_{j,n}).
//
// TimelinessConstraint says: set P must be timely with respect to set Q
// with bound b, i.e. no window of the emitted schedule may contain b
// steps of Q without a step of P (Definition 1). EnforcedGenerator wraps
// a base generator and substitutes a step of P (rotating through P's
// alive members) whenever emitting the base's choice would complete a
// P-free window with b steps of Q.
//
// One private rule, enforce(), serves next() and fill(): each
// constraint keeps its word masks and, cached between the crash plan's
// crash steps, its alive timely members and round-robin cursor, so a
// step costs a few mask tests and a branch-free counter update per
// constraint.
//
// With several overlapping constraints the enforcer is best-effort
// (constraints are applied in order, and a substitution for one may feed
// another); experiments therefore always cross-check the *executed*
// schedule with the analyzer, which is the ground truth.
#ifndef SETLIB_SCHED_ENFORCER_H
#define SETLIB_SCHED_ENFORCER_H

#include <cstdint>
#include <memory>
#include <span>
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
  /// Pulls from the base in blocks of exactly the steps still owed, so
  /// the base is consumed in the same order as by next() calls.
  void fill(std::span<Pid> out) override;

  /// Number of substituted steps so far (how often the enforcer had to
  /// override the base generator).
  std::int64_t substitutions() const noexcept { return substitutions_; }

  /// How many times a constraint could not be maintained because its
  /// timely set had fully crashed.
  std::int64_t dropped_constraints() const noexcept { return dropped_; }

  const CrashPlan& plan() const noexcept { return plan_; }

 private:
  struct State {
    std::uint64_t timely = 0;      // P
    std::uint64_t q_only = 0;      // Q \ P: the steps a window counts
    std::int64_t trigger = 0;      // bound - 1
    std::int64_t q_steps_since_p = 0;
    // Substitutions so far; the next substitute is member
    // rotate % |P ∩ alive| of P ∩ alive.
    std::int64_t rotate = 0;
    // Cached by recompute_alive(): P ∩ alive and its member number
    // rotate % |P ∩ alive| (`cursor`, as a pid), valid until the
    // alive set changes; substitutions advance the cursor in step.
    std::uint64_t avail = 0;
    Pid cursor = 0;
  };

  /// Refreshes alive_ (and every constraint's cache) when emitted_ has
  /// reached the plan's next crash step.
  void refresh_alive() {
    if (emitted_ >= alive_until_) recompute_alive();
  }
  void recompute_alive();

  /// The rule: emits `candidate` (an alive base pick) or a substitute,
  /// and advances the window counters.
  Pid enforce(Pid candidate);

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
