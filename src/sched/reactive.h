// Execution-reactive adversaries: generators that watch the run.
//
// The oblivious families (families.h) are pure functions of
// (params, seed). The generators here additionally consume the
// ObservationFeed (observations.h), which the simulator feeds as its
// step observer (or generate_observed, without a simulator), so they
// can aim their silencing and crashes at whatever the run actually
// did:
//
//   - window-stretcher: silences the processes that have been stepping
//     (the ones whose next step would close the currently-aging P-free
//     windows) for whole epochs, then releases each victim for one
//     step. Epoch length tracks the oldest observed window, so the
//     silent stretches grow as the run ages — the bound-regressing
//     shape no fixed-scale oblivious family produces.
//   - decision-chaser: retargets silencing at the alive, undecided
//     processes nearest to deciding (engine-published progress, or
//     step counts as a proxy), with a round-robin release every
//     `stretch` steps for liveness.
//   - budget-crasher: spends the t-crash budget at observed worst
//     moments — when a process's published progress crosses
//     `decide_threshold`, or at seeded checkpoints — always on the
//     most-advanced alive process.
//
// Determinism contract: reactions are a pure function of
// (observations, seed). The feed itself is derived only from the
// executed step stream and deterministic protocol state, so the same
// (kind, params, seed) replays bit-identically across threads and
// shards, exactly like the oblivious families.
//
// Per-step contract: once constructed, next() makes no heap
// allocation and no integer division, and makes at most one pass over
// the alive set (the decision-chaser: one per victim). Uniform picks
// draw through a FixedBound per set size, the same draw as
// Rng::next_below(size); the release cadence is a countdown; the
// window-stretcher's ranking lives in fixed kMaxProcs storage. Two
// bounded exceptions: the window-stretcher sorts the alive set once per
// epoch, and a budget-crasher step that spends a seeded checkpoint
// ranks the alive set again and draws the next checkpoint.
#ifndef SETLIB_SCHED_REACTIVE_H
#define SETLIB_SCHED_REACTIVE_H

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "src/sched/generator.h"
#include "src/sched/observations.h"
#include "src/util/rng.h"

namespace setlib::sched {

/// Shared parameter block for the reactive adversaries. Every kind
/// reads `n`; the rest have per-kind meaning (documented above).
struct ReactiveParams {
  int n = 2;
  /// Processes silenced simultaneously; 0 = auto (window-stretcher:
  /// n-1 so one process runs solo, decision-chaser: 1). Clamped to
  /// [1, alive-1] so somebody always steps.
  int victims = 0;
  /// Base epoch length (window-stretcher) / release cadence
  /// (decision-chaser) / checkpoint spacing scale (budget-crasher).
  std::int64_t stretch = 64;
  /// Budget-crasher: crashes it may spend (clamped to n-1).
  int crash_budget = 1;
  /// Budget-crasher: published progress at which a process is "about
  /// to decide" and worth a crash.
  std::int64_t decide_threshold = 8;
};

/// Base: a ScheduleGenerator bound to an ObservationFeed. The feed is
/// shared: the executor publishes into it, the generator reads it.
class ReactiveGenerator : public ScheduleGenerator {
 public:
  int n() const override { return feed_->n(); }

  const ObservationFeed& feed() const noexcept { return *feed_; }
  const std::shared_ptr<ObservationFeed>& feed_ptr() const noexcept {
    return feed_;
  }

  /// Crashes this adversary has decided so far (monotone). Executors
  /// mirror these into their faulty set (Simulator::use_crash_source)
  /// so the validator's crash accounting stays honest.
  virtual ProcSet crashes_requested() const noexcept { return ProcSet(); }

 protected:
  explicit ReactiveGenerator(std::shared_ptr<ObservationFeed> feed);

  /// Processes not crashed yet (never empty: budgets are < n).
  ProcSet alive() const {
    const ProcSet live =
        ProcSet(low_word_mask(feed_->n())) - feed_->crashed();
    SETLIB_ASSERT(!live.empty());  // crash budgets are < n
    return live;
  }

  std::shared_ptr<ObservationFeed> feed_;
};

class WindowStretcherGenerator final : public ReactiveGenerator {
 public:
  WindowStretcherGenerator(const ReactiveParams& params, std::uint64_t seed,
                           std::shared_ptr<ObservationFeed> feed);
  Pid next() override;

 private:
  void begin_epoch();

  ReactiveParams params_;
  Rng rng_;
  // The alive set ordered by steps taken at the epoch's start (stable:
  // ties keep pid order). The first active_ are the epoch's steppers
  // (fewest-stepped); order_[active_, release_end_) are the victims
  // owed one step each, drained from the back.
  std::array<Pid, kMaxProcs> order_{};
  int active_ = 0;
  int release_end_ = 0;
  std::int64_t epoch_left_ = 0;
  /// Largest silence ever observed (max_silence() is sampled every
  /// step: at epoch boundaries everyone was just released, so the
  /// instantaneous value would collapse back to ~n).
  std::int64_t peak_silence_ = 0;
};

class DecisionChaserGenerator final : public ReactiveGenerator {
 public:
  DecisionChaserGenerator(const ReactiveParams& params, std::uint64_t seed,
                          std::shared_ptr<ObservationFeed> feed);
  Pid next() override;

 private:
  ReactiveParams params_;
  Rng rng_;
  std::int64_t until_release_;  // steps left to the next liveness release
  int rr_ = 0;                  // release rotation cursor
};

class BudgetCrasherGenerator final : public ReactiveGenerator {
 public:
  BudgetCrasherGenerator(const ReactiveParams& params, std::uint64_t seed,
                         std::shared_ptr<ObservationFeed> feed);
  Pid next() override;
  ProcSet crashes_requested() const noexcept override { return requested_; }

 private:
  void maybe_spend_budget();

  ReactiveParams params_;
  Rng rng_;
  int budget_left_;
  // Seeded fallback checkpoints, drawn one at a time from plan_: the
  // next one is next_checkpoint_, and checkpoints_left_ remain
  // including it.
  Rng plan_;
  int checkpoints_left_;
  std::int64_t next_checkpoint_ = 0;
  ProcSet requested_;
};

/// The registered reactive adversaries, in a fixed order (stable across
/// runs; the frontier bench and fuzzer cell spaces index into it).
enum class ReactiveKind { kWindowStretcher, kDecisionChaser, kBudgetCrasher };

struct ReactiveInfo {
  ReactiveKind kind;
  const char* name;         // CLI/JSON token ("window-stretcher")
  const char* description;  // one-liner for tables and docs
};

const std::vector<ReactiveInfo>& reactive_adversaries();

/// Registry lookup by name; nullptr when unknown.
const ReactiveInfo* find_reactive(std::string_view name);

/// Instantiates a reactive adversary. Pass a feed shared with the
/// executor, or nullptr to let the generator own a private one (the
/// pure-generation mode generate_observed drives). Deterministic: the
/// same (kind, params, seed) against the same observation stream
/// always produces the same schedule.
std::unique_ptr<ReactiveGenerator> make_reactive(
    ReactiveKind kind, const ReactiveParams& params, std::uint64_t seed,
    std::shared_ptr<ObservationFeed> feed = nullptr);

/// Pure-generation driver: materializes `steps` steps, publishing each
/// emitted step back into the generator's feed — the closed loop the
/// fuzzer and frontier map run without a Simulator. (A Simulator
/// feeds the same stream itself, with the feed attached as its step
/// observer via publish_observations.)
Schedule generate_observed(ReactiveGenerator& gen, std::int64_t steps);

}  // namespace setlib::sched

#endif  // SETLIB_SCHED_REACTIVE_H
