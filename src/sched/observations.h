// ObservationFeed: the execution state an adaptive adversary may see.
//
// The paper quantifies Definition 1 over *every* schedule the model
// permits, so the strongest adversaries are not oblivious: they watch
// the run and react. This header is the narrow, read-only window the
// Simulator and engine publish into each step — per-process step
// counts, the longest silence, crash/decision status and decision
// proximity — and that ReactiveGenerators (reactive.h)
// consume. The feed is a shm::StepObserver: the Simulator reports
// steps and crashes to it through that seam (on_step forwards to
// record_step, on_crash to record_crash), and the engine publishes
// progress and decisions at its stop checks.
//
// Determinism contract: everything published here is derived from the
// executed step stream and the engine's deterministic protocol state,
// never from wall-clock time or thread interleaving. A reactive
// adversary's choices are therefore a pure function of (observations,
// seed), and identical runs replay bit-identically at any thread count.
#ifndef SETLIB_SCHED_OBSERVATIONS_H
#define SETLIB_SCHED_OBSERVATIONS_H

#include <array>
#include <cstdint>

#include "src/shm/observer.h"
#include "src/util/assert.h"
#include "src/util/procset.h"

namespace setlib::sched {

class ObservationFeed final : public shm::StepObserver {
 public:
  explicit ObservationFeed(int n);

  void on_step(Pid p, shm::StepOp /*op*/) override { record_step(p); }
  void on_crash(Pid p) override { record_crash(p); }

  int n() const noexcept { return n_; }

  // --- Step facts (published by the executor per executed step) ---

  /// Total executed steps observed so far.
  std::int64_t total_steps() const noexcept { return total_; }

  /// Executed steps by p so far.
  std::int64_t steps_of(Pid p) const {
    SETLIB_EXPECTS(p >= 0 && p < n_);
    return steps_[static_cast<std::size_t>(p)];
  }

  /// Largest single-process silence right now: the steps executed
  /// since the least recent last step (total_steps() if some process
  /// never stepped). This is the age of the oldest {p}-free window, the
  /// quantity Definition 1 bounds, so it upper-bounds the age of every
  /// P-free window with P non-empty.
  std::int64_t max_silence() const;

  /// Processes the executor has crashed (or the adversary has spent
  /// crash budget on).
  ProcSet crashed() const noexcept { return crashed_; }

  // --- Decision facts (published by the engine) ---

  /// True if the engine reported p decided.
  bool decided(Pid p) const {
    SETLIB_EXPECTS(p >= 0 && p < n_);
    return decided_.contains(p);
  }
  ProcSet decided_set() const noexcept { return decided_; }

  /// Decision proximity for p. When the engine publishes protocol
  /// progress (detector iterations), that value is returned; otherwise
  /// steps_of(p) serves as a proxy so pure-generation runs (fuzzer,
  /// frontier map) still rank processes by how far along they are.
  std::int64_t progress_of(Pid p) const {
    SETLIB_EXPECTS(p >= 0 && p < n_);
    const std::int64_t published = progress_[static_cast<std::size_t>(p)];
    return published >= 0 ? published : steps_[static_cast<std::size_t>(p)];
  }

  /// True once publish_progress has been called for p (distinguishes
  /// engine-published progress from the steps_of proxy).
  bool has_progress(Pid p) const {
    SETLIB_EXPECTS(p >= 0 && p < n_);
    return progress_[static_cast<std::size_t>(p)] >= 0;
  }

  // --- Publishers (executor / engine side) ---

  void record_step(Pid p) {
    SETLIB_EXPECTS(p >= 0 && p < n_);
    last_[static_cast<std::size_t>(p)] = total_;
    ++steps_[static_cast<std::size_t>(p)];
    ++total_;
  }
  /// Idempotent: re-crashing a crashed process is a no-op.
  void record_crash(Pid p);
  void publish_progress(Pid p, std::int64_t progress);
  void publish_decided(Pid p);

 private:
  int n_;
  std::int64_t total_ = 0;
  // Per-process facts in fixed storage (entries >= n_ unused), so a
  // feed is one allocation and the accessors above index it directly.
  std::array<std::int64_t, kMaxProcs> steps_{};
  std::array<std::int64_t, kMaxProcs> last_;      // -1 = never stepped
  std::array<std::int64_t, kMaxProcs> progress_;  // -1 = not published
  ProcSet crashed_;
  ProcSet decided_;
};

}  // namespace setlib::sched

#endif  // SETLIB_SCHED_OBSERVATIONS_H
