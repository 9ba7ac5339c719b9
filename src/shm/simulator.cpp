#include "src/shm/simulator.h"

#include <algorithm>
#include <span>

#include "src/util/assert.h"

namespace setlib::shm {

Simulator::Simulator(IMemory& mem, int n)
    : mem_(mem), n_(n), executed_(n), tracker_(ProcSet(), ProcSet()) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
  procs_.reserve(static_cast<std::size_t>(n));
  for (Pid p = 0; p < n; ++p) procs_.emplace_back(p);
  plan_crash_steps_.fill(sched::CrashPlan::kNever);
}

ProcessRuntime& Simulator::process(Pid p) {
  SETLIB_EXPECTS(p >= 0 && p < n_);
  return procs_[static_cast<std::size_t>(p)];
}

void Simulator::crash(Pid p) {
  SETLIB_EXPECTS(p >= 0 && p < n_);
  crashed_ = crashed_.with(p);
  if (feed_ != nullptr) feed_->record_crash(p);
}

bool Simulator::crashed(Pid p) const {
  SETLIB_EXPECTS(p >= 0 && p < n_);
  return crashed_.contains(p);
}

void Simulator::use_crash_plan(const sched::CrashPlan& plan) {
  SETLIB_EXPECTS(plan.n() == n_);
  for (Pid p = 0; p < n_; ++p) {
    plan_crash_steps_[static_cast<std::size_t>(p)] = plan.crash_step(p);
  }
  update_next_plan_crash();
}

void Simulator::update_next_plan_crash() {
  next_plan_crash_ = sched::CrashPlan::kNever;
  for (Pid p = 0; p < n_; ++p) {
    if (!crashed_.contains(p)) {
      next_plan_crash_ = std::min(
          next_plan_crash_, plan_crash_steps_[static_cast<std::size_t>(p)]);
    }
  }
}

void Simulator::use_crash_source(std::function<ProcSet()> source) {
  crash_source_ = std::move(source);
}

void Simulator::publish_observations(sched::ObservationFeed* feed) {
  SETLIB_EXPECTS(feed == nullptr || feed->n() == n_);
  feed_ = feed;
}

void Simulator::maybe_crash_per_source() {
  if (!crash_source_) return;
  const ProcSet requested = crash_source_() - crashed_;
  requested.for_each([this](Pid p) { crash(p); });
}

void Simulator::maybe_crash_per_plan() {
  const std::int64_t now = steps_taken();
  if (now < next_plan_crash_) return;
  for (Pid p = 0; p < n_; ++p) {
    if (!crashed_.contains(p) &&
        plan_crash_steps_[static_cast<std::size_t>(p)] <= now) {
      crash(p);
    }
  }
  update_next_plan_crash();
}

// Inline: run_until's block loop is this call per pick.
inline bool Simulator::execute(Pid p) {
  SETLIB_EXPECTS(p >= 0 && p < n_);
  if ((crashed_.mask() >> p & 1) != 0) return false;
  procs_[static_cast<std::size_t>(p)].step(mem_);
  executed_.append(p);
  hasher_.add(p);
  tracker_.step(p);
  if (feed_ != nullptr) feed_->record_step(p);
  return true;
}

void Simulator::watch(ProcSet p, ProcSet q) {
  SETLIB_EXPECTS(steps_taken() == 0);
  tracker_ = sched::BoundTracker(p, q);
}

void Simulator::step_once(Pid p) {
  maybe_crash_per_plan();
  execute(p);
}

std::int64_t Simulator::run(sched::ScheduleGenerator& gen,
                            std::int64_t steps) {
  return run_until(gen, steps, [] { return false; });
}

std::int64_t Simulator::run_until(sched::ScheduleGenerator& gen,
                                  std::int64_t max_steps,
                                  const std::function<bool()>& stop,
                                  std::int64_t check_every) {
  SETLIB_EXPECTS(gen.n() == n_);
  SETLIB_EXPECTS(max_steps >= 0);
  SETLIB_EXPECTS(check_every >= 1);
  // One allocation covers a short run's executed schedule; longer runs
  // regrow from there.
  if (executed_.empty()) executed_.reserve(std::min(max_steps, kFirstReserve));
  const ProcSet everyone = ProcSet::universe(n_);
  // Reactive adversaries read the feed and may request a crash after
  // any step, so they are pulled one pick at a time.
  const std::int64_t block_cap =
      feed_ != nullptr || crash_source_ ? 1 : kBlock;
  std::array<Pid, kBlock> block;
  std::int64_t executed = 0;
  std::int64_t until_check = check_every;
  // A pull landing on a crashed process is skipped without executing;
  // cap total pulls so a generator that only schedules crashed pids
  // cannot livelock the run.
  std::int64_t pulls = 0;
  const std::int64_t max_pulls = 16 * max_steps + 1024;
  while (executed < max_steps && pulls < max_pulls) {
    if (steps_taken() >= next_plan_crash_) maybe_crash_per_plan();
    if (crash_source_) maybe_crash_per_source();
    if (crashed_ == everyone) break;
    // Each pick executes at most one step, so a block that ends at the
    // next stop check, plan crash, max_steps and max_pulls has none of
    // them inside it: every pick pulled is consumed.
    const std::int64_t picks =
        std::min({block_cap, until_check, max_steps - executed,
                  max_pulls - pulls, next_plan_crash_ - steps_taken()});
    const std::span<Pid> pulled(block.data(), static_cast<std::size_t>(picks));
    gen.fill(pulled);
    pulls += picks;
    std::int64_t ran = 0;
    for (const Pid p : pulled) ran += execute(p) ? 1 : 0;
    executed += ran;
    until_check -= ran;
    if (until_check == 0) {
      until_check = check_every;
      if (stop()) break;
    }
  }
  return executed;
}

}  // namespace setlib::shm
