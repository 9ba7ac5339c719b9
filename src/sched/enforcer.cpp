#include "src/sched/enforcer.h"

#include <algorithm>
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
    const std::uint64_t avail = st.timely & alive_.mask();
    st.ring_size = 0;
    for_each_set_bit(avail, [&st](Pid x) {
      st.ring[static_cast<std::size_t>(st.ring_size++)] =
          static_cast<std::uint8_t>(x);
    });
    const std::uint64_t counted = st.q_only & alive_.mask();
    const std::uint64_t replaceable = st.ring_size != 0 ? counted : 0;
    for (Pid x = 0; x < kMaxProcs; ++x) {
      const auto bit = [x](std::uint64_t set) {
        return static_cast<std::int8_t>(-static_cast<int>(set >> x & 1));
      };
      PickMasks& m = st.masks[static_cast<std::size_t>(x)];
      m.live = bit(alive_.mask());
      m.counts = bit(counted);
      m.keeps_window = static_cast<std::int8_t>(~bit(avail));
      m.stays = static_cast<std::int8_t>(~bit(replaceable));
    }
    if (st.ring_size == 0) continue;
    st.cursor = static_cast<int>(st.rotate % st.ring_size);
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
      if (st.ring_size == 0) {
        ++dropped_;
        continue;  // constraint no longer enforceable
      }
      hit = &st;
      break;
    }
    if (hit == nullptr) break;
    // Substitute member rotate % |P ∩ alive|, then advance the cursor
    // to the next member, wrapping to the first.
    candidate = hit->ring[static_cast<std::size_t>(hit->cursor)];
    ++hit->rotate;
    hit->cursor = hit->cursor + 1 == hit->ring_size ? 0 : hit->cursor + 1;
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
  if (states_.size() == 1) {
    fill_lone(out);
    return;
  }
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

// enforce() for one constraint, with its state in locals from one crash
// point to the next. A lone constraint substitutes at most once a step
// and never re-checks (its substitutes are in P), so a step is mask
// arithmetic: the pick's tests are State::masks lookups, the substitute
// is ring[at], and `at` moves one member on per substitution, wrapping
// to 0. Masks, not ternaries: written as `sub != 0 ? cursor : p`, the
// substitution was compiled by GCC into a test-and-jump, which
// mispredicts on the substituted steps (about a quarter of an enforced
// census). The loop carries two chains, the window counter and the ring
// index, of four operations a step each; everything else a step needs
// comes from the pick.
void EnforcedGenerator::fill_lone(std::span<Pid> out) {
  State& st = states_.front();
  std::size_t done = 0;
  std::int64_t rejected = 0;  // crashed base picks for step out[done]
  while (done < out.size()) {
    const std::span<Pid> pulled = out.subspan(done);
    base_->fill(pulled);
    std::size_t read = 0;
    while (read < pulled.size()) {
      refresh_alive();
      if (rejected == kMaxPulls - 1) {
        // This pick ends the step's pulls: it runs, or the pull cap
        // emits the smallest alive pid.
        const Pid p = pulled[read++];
        out[done++] = enforce(alive_.contains(p) ? p : alive_.min());
        rejected = 0;
        continue;
      }
      // Each pick emits at most one step, so these picks all fall
      // before the next crash point, and none of them reaches the
      // pull cap.
      const std::size_t end =
          read + static_cast<std::size_t>(std::min(
                     {static_cast<std::int64_t>(pulled.size() - read),
                      alive_until_ - emitted_, kMaxPulls - 1 - rejected}));
      const auto ring_size = static_cast<std::int64_t>(st.ring_size);
      const std::int64_t trigger = st.trigger;
      auto at = static_cast<std::int64_t>(st.cursor);
      std::int64_t q_steps = st.q_steps_since_p;
      std::int64_t hits = 0;  // counted steps that find the window full
      const std::size_t first = done;
      for (; read < end; ++read) {
        const Pid p = pulled[read];
        SETLIB_EXPECTS(p >= 0 && p < kMaxProcs);
        const PickMasks& m = st.masks[static_cast<std::size_t>(p)];
        // -1 while the window holds fewer than `bound` Q-steps.
        const std::int64_t short_of = (q_steps - trigger) >> 63;
        const std::int64_t stays = short_of | m.stays;
        hits -= m.counts & ~short_of;
        q_steps = ((q_steps - m.counts) & m.keeps_window) & stays;
        const Pid substitute = st.ring[static_cast<std::size_t>(at)];
        out[done] = p ^ ((p ^ substitute) & static_cast<Pid>(~stays));
        done -= static_cast<std::size_t>(m.live);
        at -= ~stays;
        at &= (at - ring_size) >> 63;
        rejected = (rejected + 1) & ~std::int64_t{m.live};
      }
      st.q_steps_since_p = q_steps;
      if (ring_size != 0) {
        st.cursor = static_cast<int>(at);
        st.rotate += hits;
        substitutions_ += hits;
      } else {
        dropped_ += hits;
      }
      emitted_ += static_cast<std::int64_t>(done - first);
    }
  }
}

}  // namespace setlib::sched
