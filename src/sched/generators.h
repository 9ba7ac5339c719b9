// Concrete schedule generators.
//
// - RoundRobinGenerator: the fully synchronous baseline.
// - UniformRandomGenerator / WeightedRandomGenerator: seeded fair and
//   biased asynchrony.
// - Figure1Generator: the paper's Figure 1 schedule
//   S = [(p1 q)^i (p2 q)^i] for i = 1, 2, 3, ...: neither {p1} nor {p2}
//   is timely w.r.t. {q}, but {p1, p2} is (bound 2).
// - RotatingStarverGenerator: generalization of Figure 1. Rotors take
//   turns (in growing bursts) being the only rotor that steps, each
//   interleaved with the background set. The rotor set as a whole is
//   timely w.r.t. the background, but every proper subset of the rotors
//   is starved for unboundedly long stretches. Used as the adversary for
//   the i > k impossibility experiments.
// - CrashPlan + apply_crashes: stop scheduling a process from a given
//   global step on (the model's notion of a crash: finitely many steps).
#ifndef SETLIB_SCHED_GENERATORS_H
#define SETLIB_SCHED_GENERATORS_H

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "src/sched/generator.h"
#include "src/util/procset.h"
#include "src/util/rng.h"

namespace setlib::sched {

class RoundRobinGenerator final : public ScheduleGenerator {
 public:
  explicit RoundRobinGenerator(int n);

  int n() const override { return n_; }
  Pid next() override;

 private:
  int n_;
  Pid next_ = 0;
};

class UniformRandomGenerator final : public ScheduleGenerator {
 public:
  UniformRandomGenerator(int n, std::uint64_t seed);

  int n() const override { return n_; }
  Pid next() override;
  void fill(std::span<Pid> out) override;

 private:
  int n_;
  FixedBound bound_;  // n, reduced without a division per draw
  Rng rng_;
};

class WeightedRandomGenerator final : public ScheduleGenerator {
 public:
  /// weights.size() == n; weights need not sum to 1 (>= 0, not all 0).
  WeightedRandomGenerator(std::vector<double> weights, std::uint64_t seed);

  int n() const override { return static_cast<int>(weights_.size()); }
  Pid next() override;

 private:
  std::vector<double> weights_;
  Rng rng_;
};

/// The schedule of the paper's Figure 1: [(p1 q)^i (p2 q)^i]_{i=1..inf}.
class Figure1Generator final : public ScheduleGenerator {
 public:
  Figure1Generator(int n, Pid p1, Pid p2, Pid q);

  int n() const override { return n_; }
  Pid next() override;

  /// Total steps in phases 1..i (each phase i has 4i steps); useful for
  /// cutting prefixes exactly at phase boundaries in experiments.
  static std::int64_t steps_through_phase(std::int64_t i);

 private:
  int n_;
  Pid p1_, p2_, q_;
  std::int64_t phase_ = 1;      // current i
  std::int64_t pair_in_half_ = 0;
  bool second_half_ = false;    // false: (p1 q)^i, true: (p2 q)^i
  bool emit_q_ = false;         // within a pair: rotor first, then q
};

/// Growing-burst rotation over `rotors`, interleaved with `background`.
///
/// Phase m (m = 1, 2, ...) repeats `growth * m` times the block
///   [ r, b_1, b_2, ..., b_B ]
/// where r is rotor number (m-1) mod |rotors| and b_* enumerate the
/// background. Guarantees (see analyzer tests):
///   - rotors (as one set) timely w.r.t. background with bound |B| + 1;
///   - every proper rotor subset misses unboundedly long stretches.
/// Processes outside rotors + background never step.
class RotatingStarverGenerator final : public ScheduleGenerator {
 public:
  RotatingStarverGenerator(int n, ProcSet rotors, ProcSet background,
                           std::int64_t growth = 1);

  int n() const override { return n_; }
  Pid next() override;

 private:
  void advance_block();

  int n_;
  std::vector<Pid> rotors_;
  std::vector<Pid> background_;
  std::int64_t growth_;
  std::int64_t phase_ = 1;
  std::int64_t block_in_phase_ = 0;
  std::size_t rotor_idx_ = 0;
  std::size_t pos_in_block_ = 0;  // 0 = rotor, 1.. = background
};

/// Rotating k-subset starvation (the schedule shape behind Theorem 26's
/// separation and the i > k side of Theorem 27). Phase m (of growing
/// length growth * m) starves the k-subset of `live` with combinadic
/// rank (m-1) mod C(|live|, k); all other live processes round-robin.
/// Consequences (verified by the analyzer in tests):
///   - every (k+1)-subset of `live` is timely w.r.t. the whole universe
///     (at most k processes are starved at any moment, so any k+1
///     processes always include an active one);
///   - no k-subset of `live` is timely w.r.t. anything that keeps
///     stepping: each is starved for unboundedly long stretches.
class KSubsetStarverGenerator final : public ScheduleGenerator {
 public:
  KSubsetStarverGenerator(int n, ProcSet live, int k,
                          std::int64_t growth = 1);

  int n() const override { return n_; }
  Pid next() override;
  /// Copies whole round-robin runs of the current phase at a time.
  void fill(std::span<Pid> out) override;

 private:
  void enter_phase();

  int n_;
  ProcSet live_;
  SubsetRanker ranker_;  // over |live| indices into live_members_
  std::vector<Pid> live_members_;
  std::int64_t growth_;
  std::int64_t phase_ = 0;
  std::int64_t step_in_phase_ = 0;
  std::vector<Pid> active_;  // live minus the starved subset
  std::size_t rr_ = 0;
};

/// Switch from one generator to another at a fixed step index — the
/// classic "global stabilization time" (GST) shape of Dwork-Lynch-
/// Stockmeyer partial synchrony, expressed in the set-timeliness
/// model: a schedule that is adversarial before the switch and timely
/// after still has a *finite* Definition 1 bound (the finite prefix
/// contributes a finite worst window), so it belongs to S^i_{j,n} and
/// the paper's algorithms must cope with it.
class SwitchGenerator final : public ScheduleGenerator {
 public:
  SwitchGenerator(std::unique_ptr<ScheduleGenerator> before,
                  std::unique_ptr<ScheduleGenerator> after,
                  std::int64_t switch_at);

  int n() const override;
  Pid next() override;

 private:
  std::unique_ptr<ScheduleGenerator> before_;
  std::unique_ptr<ScheduleGenerator> after_;
  std::int64_t switch_at_;
  std::int64_t emitted_ = 0;
};

/// Replay a recorded (finite) schedule; afterwards falls back to
/// round-robin over the same process set. Enables deterministic
/// regression replay of any executed run.
class ReplayGenerator final : public ScheduleGenerator {
 public:
  explicit ReplayGenerator(Schedule schedule);

  int n() const override { return schedule_.n(); }
  Pid next() override;

  std::int64_t replayed() const noexcept { return pos_; }
  bool exhausted() const noexcept { return pos_ >= schedule_.size(); }

 private:
  Schedule schedule_;
  std::int64_t pos_ = 0;
  Pid fallback_ = 0;
};

/// Per-process crash times: process p takes no step at global index
/// >= crash_step[p]. kNever means correct.
class CrashPlan {
 public:
  static constexpr std::int64_t kNever =
      std::numeric_limits<std::int64_t>::max();

  explicit CrashPlan(int n);

  /// No crashes.
  static CrashPlan none(int n);

  /// Crash every process in `who` at step `when`.
  static CrashPlan at(int n, ProcSet who, std::int64_t when);

  int n() const noexcept { return n_; }
  void set_crash(Pid p, std::int64_t step);
  std::int64_t crash_step(Pid p) const;
  bool crashed_by(Pid p, std::int64_t step) const;

  /// Processes with a finite crash step.
  ProcSet faulty() const;
  ProcSet correct() const { return faulty().complement(n_); }

  /// Processes alive at global step index `step`.
  ProcSet alive_at(std::int64_t step) const;

  /// The first step after `step` at which alive_at changes: the least
  /// crash step > `step`, or kNever when no crash is still to come.
  std::int64_t next_crash_after(std::int64_t step) const;

 private:
  int n_;
  std::vector<std::int64_t> crash_step_;
};

/// Wraps a base generator, suppressing steps of crashed processes.
/// Pulls from the base until it yields an alive pid (the base generators
/// above are fair, so this terminates as long as one process is alive).
class CrashFilterGenerator final : public ScheduleGenerator {
 public:
  CrashFilterGenerator(std::unique_ptr<ScheduleGenerator> base,
                       CrashPlan plan);

  int n() const override { return base_->n(); }
  Pid next() override;

  const CrashPlan& plan() const noexcept { return plan_; }

 private:
  std::unique_ptr<ScheduleGenerator> base_;
  CrashPlan plan_;
  std::int64_t emitted_ = 0;
};

}  // namespace setlib::sched

#endif  // SETLIB_SCHED_GENERATORS_H
