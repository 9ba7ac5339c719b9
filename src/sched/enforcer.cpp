#include "src/sched/enforcer.h"

#include <bit>

#include "src/util/assert.h"

namespace setlib::sched {

namespace {

// Base pulls per step before the enforcer gives up on the base finding
// an alive process and emits the smallest alive pid instead.
constexpr std::int64_t kMaxPulls = 1'000'000;

// Substitution rounds per step: a substitution restarts the constraint
// scan, at most this many times.
constexpr int kMaxRounds = 8;

}  // namespace

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
    State st;
    st.timely = c.timely_set.mask();
    st.q_only = (c.observed_set - c.timely_set).mask();
    st.trigger = c.bound - 1;
    states_.push_back(st);
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

void EnforcedGenerator::recompute_alive() {
  alive_ = plan_.alive_at(emitted_);
  alive_until_ = plan_.next_crash_after(emitted_);
  SETLIB_ASSERT(!alive_.empty());
  for (State& st : states_) {
    st.avail = st.timely & alive_.mask();
    if (st.avail == 0) continue;
    const ProcSet avail(st.avail);
    st.cursor = avail.nth(static_cast<int>(st.rotate % avail.size()));
  }
}

// Inline: the shared rule is most of the cost of next() and fill().
inline Pid EnforcedGenerator::enforce(Pid candidate) {
  // Apply constraints in order: the first one the candidate would break
  // substitutes, and the scan restarts so the final choice is
  // re-checked against every constraint. A lone constraint skips the
  // re-check: its substitutes are in P, which its window never counts.
  for (int round = 0; round < kMaxRounds; ++round) {
    State* hit = nullptr;
    for (State& st : states_) {
      if ((st.q_only >> candidate & 1) == 0 ||
          st.q_steps_since_p < st.trigger) {
        continue;
      }
      if (st.avail == 0) {
        ++dropped_;
        continue;  // constraint no longer enforceable
      }
      hit = &st;
      break;
    }
    if (hit == nullptr) break;
    // Substitute member rotate % |P ∩ alive|, then advance the cursor
    // to the next member, wrapping to the first.
    candidate = hit->cursor;
    ++hit->rotate;
    const std::uint64_t later =
        hit->avail & (~std::uint64_t{1} << hit->cursor);
    hit->cursor = std::countr_zero(later != 0 ? later : hit->avail);
    ++substitutions_;
    if (states_.size() == 1) break;
  }

  // Window counters, branch-free: a P-step resets, a (Q \ P)-step
  // counts.
  for (State& st : states_) {
    const auto in_p = static_cast<std::int64_t>(st.timely >> candidate & 1);
    const auto in_q = static_cast<std::int64_t>(st.q_only >> candidate & 1);
    st.q_steps_since_p = (st.q_steps_since_p + in_q) & (in_p - 1);
  }
  ++emitted_;
  return candidate;
}

Pid EnforcedGenerator::next() {
  refresh_alive();
  // Base proposal, crash-filtered.
  for (std::int64_t attempts = 0; attempts < kMaxPulls; ++attempts) {
    const Pid p = base_->next();
    if (alive_.contains(p)) return enforce(p);
  }
  return enforce(alive_.min());
}

void EnforcedGenerator::fill(std::span<Pid> out) {
  std::size_t done = 0;
  std::int64_t rejected = 0;  // crashed base picks for step out[done]
  while (done < out.size()) {
    // Each pull yields at most one step, so the owed tail of `out` is
    // the pull buffer: steps are written behind the read position.
    const std::span<Pid> pulled = out.subspan(done);
    base_->fill(pulled);
    for (const Pid p : pulled) {
      refresh_alive();
      if (alive_.contains(p)) {
        out[done++] = enforce(p);
        rejected = 0;
      } else if (++rejected == kMaxPulls) {
        out[done++] = enforce(alive_.min());
        rejected = 0;
      }
    }
  }
}

}  // namespace setlib::sched
