#include "src/runtime/pacer.h"

#include "src/util/assert.h"

namespace setlib::runtime {

Pacer::Pacer(int n, std::vector<sched::TimelinessConstraint> constraints)
    : n_(n), active_(ProcSet::universe(n)) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
  const ProcSet universe = ProcSet::universe(n);
  for (const auto& c : constraints) {
    SETLIB_EXPECTS(c.bound >= 1);
    SETLIB_EXPECTS(!c.timely_set.empty());
    SETLIB_EXPECTS(c.timely_set.subset_of(universe));
    SETLIB_EXPECTS(c.observed_set.subset_of(universe));
    states_.push_back(State{c, 0, false});
  }
}

bool Pacer::allowed_locked(Pid pid) const {
  for (const auto& st : states_) {
    if (st.dropped) continue;
    const bool in_q = st.c.observed_set.contains(pid);
    const bool in_p = st.c.timely_set.contains(pid);
    if (in_q && !in_p && st.q_steps_since_p >= st.c.bound - 1) {
      return false;
    }
  }
  return true;
}

void Pacer::apply_locked(Pid pid) {
  for (auto& st : states_) {
    if (st.dropped) continue;
    if (st.c.timely_set.contains(pid)) {
      st.q_steps_since_p = 0;
    } else if (st.c.observed_set.contains(pid)) {
      ++st.q_steps_since_p;
    }
  }
  ++steps_;
  log_.push_back(pid);
}

bool Pacer::step(Pid pid, const std::function<void()>& body) {
  SETLIB_EXPECTS(pid >= 0 && pid < n_);
  const util::MutexLock lock(mu_);
  while (!stop_ && !allowed_locked(pid)) cv_.wait(mu_);
  if (stop_) return false;
  body();
  apply_locked(pid);
  // A step by a P member unblocks Q waiters; wake them.
  cv_.notify_all();
  return true;
}

void Pacer::deactivate(Pid pid) {
  SETLIB_EXPECTS(pid >= 0 && pid < n_);
  const util::MutexLock lock(mu_);
  active_ = active_.without(pid);
  // Constraints whose timely set has fully deactivated can never be
  // satisfied again; drop them so waiters are not stranded. Teardown
  // deactivations (after request_stop) are not counted: at that point
  // the run is over and the drop is bookkeeping, not a violation.
  for (auto& st : states_) {
    if (st.dropped || !(st.c.timely_set & active_).empty()) continue;
    st.dropped = true;
    if (!stop_) {
      ++dropped_;
      if (!first_drop_step_) first_drop_step_ = steps_;
    }
  }
  cv_.notify_all();
}

void Pacer::request_stop() {
  const util::MutexLock lock(mu_);
  stop_ = true;
  cv_.notify_all();
}

bool Pacer::stopped() const {
  const util::MutexLock lock(mu_);
  return stop_;
}

std::int64_t Pacer::steps_taken() const {
  const util::MutexLock lock(mu_);
  return steps_;
}

std::int64_t Pacer::dropped_constraints() const {
  const util::MutexLock lock(mu_);
  return dropped_;
}

std::optional<std::int64_t> Pacer::first_drop_step() const {
  const util::MutexLock lock(mu_);
  return first_drop_step_;
}

sched::Schedule Pacer::recorded_schedule() const {
  const util::MutexLock lock(mu_);
  return sched::Schedule(n_, log_);
}

}  // namespace setlib::runtime
