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
// constraint. fill() with a lone constraint (every serving batch and
// enforced census) runs the same rule without a branch on the picks:
// between two crash points the window counter, the substitute's place
// in an ascending array of P ∩ alive and the substitution counts live
// in locals, and every choice (skip a crashed pick, substitute, reset
// or count the window) is mask arithmetic.
//
// With several overlapping constraints the enforcer is best-effort
// (constraints are applied in order, and a substitution for one may feed
// another); experiments therefore always cross-check the *executed*
// schedule with the analyzer, which is the ground truth.
#ifndef SETLIB_SCHED_ENFORCER_H
#define SETLIB_SCHED_ENFORCER_H

#include <array>
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
  /// the base is consumed in the same order as by next() calls. The
  /// pull cap counts a step's crashed picks across those blocks.
  void fill(std::span<Pid> out) override;

  /// Number of substituted steps so far (how often the enforcer had to
  /// override the base generator).
  std::int64_t substitutions() const noexcept { return substitutions_; }

  /// How many times a constraint could not be maintained because its
  /// timely set had fully crashed.
  std::int64_t dropped_constraints() const noexcept { return dropped_; }

  const CrashPlan& plan() const noexcept { return plan_; }

 private:
  // Per pid, 0 / -1 masks that fill_lone reads per pick in place of
  // bit tests.
  struct PickMasks {
    std::int8_t live = 0;          // alive
    std::int8_t counts = 0;        // alive, in Q \ P: a window counts it
    std::int8_t keeps_window = 0;  // not in P ∩ alive: no window reset
    std::int8_t stays = 0;         // never substituted: not counted, or
                                   // P ∩ alive is empty
  };

  struct State {
    std::uint64_t timely = 0;      // P
    std::uint64_t q_only = 0;      // Q \ P: the steps a window counts
    std::int64_t trigger = 0;      // bound - 1
    std::int64_t q_steps_since_p = 0;
    // Substitutions so far; the next substitute is member
    // rotate % |P ∩ alive| of P ∩ alive.
    std::int64_t rotate = 0;
    // Cached by recompute_alive(), valid until the alive set changes:
    // the members of P ∩ alive in ascending order (ring[0, ring_size)),
    // the place in ring of member rotate % |P ∩ alive| (`cursor`),
    // which every substitution advances by one, wrapping to 0, and the
    // masks of every pid.
    std::array<std::uint8_t, kMaxProcs> ring{};
    int ring_size = 0;
    int cursor = 0;
    std::array<PickMasks, kMaxProcs> masks{};
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
  /// fill() for a lone constraint: the rule as mask arithmetic.
  void fill_lone(std::span<Pid> out);

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
