#include "src/core/workqueue.h"

#include <algorithm>

#include "src/util/assert.h"

namespace setlib::core {

ShardSpec Lease::shard(std::size_t span) const {
  return ShardSpec{lo, hi, span};
}

const char* lease_event_kind_name(LeaseEvent::Kind kind) noexcept {
  switch (kind) {
    case LeaseEvent::Kind::kFailed:
      return "failed";
    case LeaseEvent::Kind::kExpired:
      return "expired";
    case LeaseEvent::Kind::kSuperseded:
      return "superseded";
  }
  return "unknown";
}

JsonValue WorkQueueReport::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("span", JsonValue::of(span));
  out.set("initial_ranges", JsonValue::of(initial_ranges));
  out.set("leases_issued", JsonValue::of(leases_issued));
  out.set("leases_completed", JsonValue::of(leases_completed));
  out.set("leases_failed", JsonValue::of(leases_failed));
  out.set("leases_expired", JsonValue::of(leases_expired));
  out.set("leases_superseded", JsonValue::of(leases_superseded));
  out.set("leases_resharded", JsonValue::of(leases_resharded));
  out.set("completions_discarded",
          JsonValue::of(completions_discarded));
  out.set("failure_budget", JsonValue::of(failure_budget));
  out.set("failures_spent", JsonValue::of(failures_spent));
  if (!abort_reason.empty()) {
    out.set("abort_reason", JsonValue::of(abort_reason));
  }
  std::vector<JsonValue> items;
  items.reserve(events.size());
  for (const LeaseEvent& event : events) {
    JsonValue e = JsonValue::object();
    e.set("kind", JsonValue::of(lease_event_kind_name(event.kind)));
    e.set("lease", JsonValue::of(event.lease));
    e.set("range", JsonValue::of(std::to_string(event.lo) + ".." +
                                 std::to_string(event.hi)));
    e.set("worker", JsonValue::of(static_cast<std::int64_t>(event.worker)));
    e.set("age_seconds", JsonValue::of(event.age_seconds));
    e.set("split", JsonValue::of(static_cast<std::int64_t>(
                       event.split ? 1 : 0)));
    if (!event.detail.empty()) {
      e.set("detail", JsonValue::of(event.detail));
    }
    items.push_back(std::move(e));
  }
  out.set("events", JsonValue::array(std::move(items)));
  return out;
}

WorkQueue::WorkQueue(WorkQueueOptions options)
    : options_(std::move(options)) {
  SETLIB_EXPECTS(options_.span >= 1);
  SETLIB_EXPECTS(options_.workers >= 1);
  SETLIB_EXPECTS(options_.ranges <= options_.span);
  SETLIB_EXPECTS(options_.lease_timeout.count() > 0);
  SETLIB_EXPECTS(options_.straggler_factor >= 0.0);

  initial_ranges_ = options_.ranges;
  if (initial_ranges_ == 0) {
    initial_ranges_ = std::min<std::size_t>(
        options_.span,
        std::max<std::size_t>(
            8, 8 * static_cast<std::size_t>(options_.workers)));
  }
  if (options_.failure_budget == 0) {
    options_.failure_budget = 2 * initial_ranges_ + 8;
  }

  // Carve [0, span) into initial_ranges_ contiguous slices with the
  // same floor arithmetic ShardSpec::range uses, so the tiling is
  // exact whatever the division remainder.
  pending_.reserve(initial_ranges_);
  for (std::size_t r = 0; r < initial_ranges_; ++r) {
    Range range;
    range.lo = options_.span * r / initial_ranges_;
    range.hi = options_.span * (r + 1) / initial_ranges_;
    if (range.lo < range.hi) pending_.push_back(range);
  }
  // Workers lease low ranges first (pop from the back).
  std::reverse(pending_.begin(), pending_.end());
  remaining_ = options_.span;

  stats_.span = options_.span;
  stats_.initial_ranges = initial_ranges_;
  stats_.failure_budget = options_.failure_budget;
}

std::chrono::steady_clock::time_point WorkQueue::now() const {
  return options_.clock ? options_.clock()
                        : std::chrono::steady_clock::now();
}

bool WorkQueue::requeue_split_locked(const Range& range) {
  if (range.hi - range.lo >= 2) {
    const std::size_t mid = range.lo + (range.hi - range.lo) / 2;
    pending_.push_back({mid, range.hi});
    pending_.push_back({range.lo, mid});
    ++stats_.leases_resharded;
    return true;
  }
  pending_.push_back(range);
  return false;
}

void WorkQueue::spend_failure_locked(const std::string& reason) {
  ++stats_.failures_spent;
  if (stats_.failures_spent > options_.failure_budget && !aborted_) {
    aborted_ = true;
    stats_.abort_reason = "failure budget (" +
                          std::to_string(options_.failure_budget) +
                          ") exhausted; last failure: " + reason;
  }
}

void WorkQueue::expire_locked(
    std::chrono::steady_clock::time_point t) {
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->second.deadline > t) {
      ++it;
      continue;
    }
    LeaseEvent event;
    event.kind = LeaseEvent::Kind::kExpired;
    event.lease = it->first;
    event.lo = it->second.range.lo;
    event.hi = it->second.range.hi;
    event.worker = it->second.worker;
    event.age_seconds =
        std::chrono::duration<double>(t - it->second.start).count();
    event.detail = "lease deadline passed with no completion";
    ++stats_.leases_expired;
    spend_failure_locked(event.detail);
    event.split = requeue_split_locked(it->second.range);
    stats_.events.push_back(std::move(event));
    it = active_.erase(it);
  }
}

bool WorkQueue::reshard_straggler_locked(
    std::chrono::steady_clock::time_point t) {
  if (options_.straggler_factor <= 0.0) return false;
  if (!pending_.empty() || active_.empty()) return false;
  // No baseline yet: with nothing completed, "visibly lags" has no
  // meaning — expiry is the only recourse.
  if (completed_seconds_.empty()) return false;
  std::vector<double> sorted = completed_seconds_;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double median = sorted[sorted.size() / 2];
  const double threshold = std::max(
      std::chrono::duration<double>(options_.straggler_min).count(),
      options_.straggler_factor * median);

  auto oldest = active_.end();
  double oldest_age = 0.0;
  for (auto it = active_.begin(); it != active_.end(); ++it) {
    if (it->second.range.hi - it->second.range.lo < 2) continue;
    const double age =
        std::chrono::duration<double>(t - it->second.start).count();
    if (age > threshold && age > oldest_age) {
      oldest = it;
      oldest_age = age;
    }
  }
  if (oldest == active_.end()) return false;

  LeaseEvent event;
  event.kind = LeaseEvent::Kind::kSuperseded;
  event.lease = oldest->first;
  event.lo = oldest->second.range.lo;
  event.hi = oldest->second.range.hi;
  event.worker = oldest->second.worker;
  event.age_seconds = oldest_age;
  event.detail = "straggler: age beyond " + std::to_string(threshold) +
                 " s, resharded to an idle worker";
  ++stats_.leases_superseded;
  // Supersession spends no failure budget: the straggler is slow, not
  // broken, and its eventual completion is merely discarded.
  event.split = requeue_split_locked(oldest->second.range);
  stats_.events.push_back(std::move(event));
  active_.erase(oldest);
  return true;
}

std::optional<Lease> WorkQueue::acquire(int worker) {
  const util::MutexLock lock(mu_);
  for (;;) {
    if (aborted_ || remaining_ == 0) return std::nullopt;
    const auto t = now();
    expire_locked(t);
    if (aborted_) return std::nullopt;
    if (pending_.empty()) reshard_straggler_locked(t);
    if (!pending_.empty()) {
      const Range range = pending_.back();
      pending_.pop_back();
      Lease lease;
      lease.id = next_id_++;
      lease.lo = range.lo;
      lease.hi = range.hi;
      lease.deadline = t + options_.lease_timeout;
      Active active;
      active.range = range;
      active.worker = worker;
      active.start = t;
      active.deadline = lease.deadline;
      active_.emplace(lease.id, active);
      ++stats_.leases_issued;
      return lease;
    }
    // Nothing to lease but the run is not over: wait for a
    // completion/failure, or for time to pass so expiry/straggler
    // checks can fire.
    cv_.wait_for(mu_, std::chrono::milliseconds(50));
  }
}

bool WorkQueue::complete(std::uint64_t lease_id) {
  const util::MutexLock lock(mu_);
  const auto it = active_.find(lease_id);
  if (it == active_.end()) {
    // Superseded or expired while the worker was still running: the
    // range was re-leased elsewhere, so this result must not count —
    // double-counting a range would corrupt the merge.
    ++stats_.completions_discarded;
    cv_.notify_all();
    return false;
  }
  const std::size_t width = it->second.range.hi - it->second.range.lo;
  SETLIB_ASSERT(remaining_ >= width);
  remaining_ -= width;
  completed_seconds_.push_back(
      std::chrono::duration<double>(now() - it->second.start).count());
  ++stats_.leases_completed;
  active_.erase(it);
  cv_.notify_all();
  return true;
}

void WorkQueue::fail(std::uint64_t lease_id, const std::string& reason) {
  const util::MutexLock lock(mu_);
  const auto it = active_.find(lease_id);
  if (it == active_.end()) {
    // Already superseded/expired — the requeue happened then.
    cv_.notify_all();
    return;
  }
  LeaseEvent event;
  event.kind = LeaseEvent::Kind::kFailed;
  event.lease = lease_id;
  event.lo = it->second.range.lo;
  event.hi = it->second.range.hi;
  event.worker = it->second.worker;
  event.age_seconds =
      std::chrono::duration<double>(now() - it->second.start).count();
  event.detail = reason;
  ++stats_.leases_failed;
  spend_failure_locked(reason);
  event.split = requeue_split_locked(it->second.range);
  stats_.events.push_back(std::move(event));
  active_.erase(it);
  cv_.notify_all();
}

bool WorkQueue::done() const {
  const util::MutexLock lock(mu_);
  return remaining_ == 0 && !aborted_;
}

bool WorkQueue::aborted() const {
  const util::MutexLock lock(mu_);
  return aborted_;
}

WorkQueueReport WorkQueue::report() const {
  const util::MutexLock lock(mu_);
  return stats_;
}

}  // namespace setlib::core
