#include "src/sched/enforcer.h"

#include "src/util/assert.h"

namespace setlib::sched {

EnforcedGenerator::EnforcedGenerator(
    std::unique_ptr<ScheduleGenerator> base,
    std::vector<TimelinessConstraint> constraints, CrashPlan plan)
    : base_(std::move(base)), plan_(std::move(plan)) {
  SETLIB_EXPECTS(base_ != nullptr);
  SETLIB_EXPECTS(plan_.n() == base_->n());
  const ProcSet universe = ProcSet::universe(base_->n());
  for (const auto& c : constraints) {
    SETLIB_EXPECTS(c.bound >= 1);
    SETLIB_EXPECTS(!c.timely_set.empty());
    SETLIB_EXPECTS(c.timely_set.subset_of(universe));
    SETLIB_EXPECTS(c.observed_set.subset_of(universe));
    states_.push_back(State{c});
  }
}

std::unique_ptr<EnforcedGenerator> EnforcedGenerator::single(
    std::unique_ptr<ScheduleGenerator> base, TimelinessConstraint constraint) {
  SETLIB_EXPECTS(base != nullptr);
  const int n = base->n();
  return std::make_unique<EnforcedGenerator>(
      std::move(base), std::vector<TimelinessConstraint>{constraint},
      CrashPlan::none(n));
}

Pid EnforcedGenerator::pick_substitute(State& st, ProcSet alive) {
  const ProcSet candidates = st.c.timely_set & alive;
  SETLIB_EXPECTS(!candidates.empty());
  const int sz = candidates.size();
  const Pid p = candidates.nth(st.rotate % sz);
  ++st.rotate;
  return p;
}

Pid EnforcedGenerator::next() {
  if (emitted_ >= alive_until_) {
    alive_ = plan_.alive_at(emitted_);
    alive_until_ = plan_.next_crash_after(emitted_);
  }
  const ProcSet alive = alive_;
  SETLIB_ASSERT(!alive.empty());

  // Base proposal, already crash-filtered.
  Pid candidate = -1;
  for (std::int64_t attempts = 0; attempts < 1'000'000; ++attempts) {
    const Pid p = base_->next();
    if (alive.contains(p)) {
      candidate = p;
      break;
    }
  }
  if (candidate < 0) candidate = alive.min();

  // Apply constraints in order; a substitution restarts the scan so the
  // final choice is re-checked against every constraint.
  bool changed = true;
  int rounds = 0;
  while (changed && rounds < 8) {
    changed = false;
    ++rounds;
    for (auto& st : states_) {
      const bool in_q = st.c.observed_set.contains(candidate);
      const bool in_p = st.c.timely_set.contains(candidate);
      if (in_q && !in_p && st.q_steps_since_p >= st.c.bound - 1) {
        const ProcSet avail = st.c.timely_set & alive;
        if (avail.empty()) {
          ++dropped_;
          continue;  // constraint no longer enforceable
        }
        candidate = pick_substitute(st, alive);
        ++substitutions_;
        changed = true;
        break;
      }
    }
  }

  // Update window counters with the emitted step.
  for (auto& st : states_) {
    if (st.c.timely_set.contains(candidate)) {
      st.q_steps_since_p = 0;
    } else if (st.c.observed_set.contains(candidate)) {
      ++st.q_steps_since_p;
    }
  }
  ++emitted_;
  return candidate;
}

}  // namespace setlib::sched
