#include "src/sched/reactive.h"

#include <algorithm>
#include <array>
#include <utility>

#include "src/util/assert.h"

namespace setlib::sched {

namespace {

/// Independent per-role seed streams (same derivation shape as
/// sched::families.cpp and core::derive_cell_seed).
std::uint64_t reactive_seed(std::uint64_t seed, std::uint64_t role) noexcept {
  std::uint64_t state = seed + 0x9E3779B97F4A7C15ull * (role + 1);
  return splitmix64(state);
}

template <std::size_t... I>
std::array<FixedBound, sizeof...(I)> make_size_bounds(
    std::index_sequence<I...>) {
  return {FixedBound(I + 1)...};
}

/// FixedBound(size) for every set size 1..kMaxProcs, built once.
const FixedBound& size_bound(int size) {
  static const std::array<FixedBound, kMaxProcs> bounds =
      make_size_bounds(std::make_index_sequence<kMaxProcs>());
  return bounds[static_cast<std::size_t>(size - 1)];
}

/// A uniform member of non-empty `pool`: the member at index
/// rng.next_below(pool.size()) in increasing pid order, drawn without
/// a division. The select visits every member whatever the index, so
/// its loop exit stays predictable.
Pid draw_member(Rng& rng, ProcSet pool) {
  const auto m = static_cast<int>(rng.next_below(size_bound(pool.size())));
  Pid picked = 0;
  int index = 0;
  pool.for_each([&](Pid p) { picked = index++ == m ? p : picked; });
  return picked;
}

void validate(const ReactiveParams& params) {
  SETLIB_EXPECTS(params.n >= 1 && params.n <= kMaxProcs);
  SETLIB_EXPECTS(params.victims >= 0);
  SETLIB_EXPECTS(params.stretch >= 1);
  SETLIB_EXPECTS(params.crash_budget >= 0);
  SETLIB_EXPECTS(params.decide_threshold >= 0);
}

}  // namespace

ReactiveGenerator::ReactiveGenerator(std::shared_ptr<ObservationFeed> feed)
    : feed_(std::move(feed)) {
  SETLIB_EXPECTS(feed_ != nullptr);
}

WindowStretcherGenerator::WindowStretcherGenerator(
    const ReactiveParams& params, std::uint64_t seed,
    std::shared_ptr<ObservationFeed> feed)
    : ReactiveGenerator(std::move(feed)),
      params_(params),
      rng_(reactive_seed(seed, 0)) {
  validate(params);
  SETLIB_EXPECTS(params.n == n());
}

void WindowStretcherGenerator::begin_epoch() {
  // Victims = the most-stepped alive processes: silencing the recent
  // steppers is what keeps every currently-aging P-free window open.
  // Equivalently the epoch's actives are the fewest-stepped, so the
  // solo/active role rotates through all processes as counts balance —
  // over time every candidate P-set gets fully-silenced epochs.
  // Insertion sort by steps taken: stable, so ties keep pid order.
  int alive_count = 0;
  alive().for_each([&](Pid p) {
    const std::int64_t steps = feed_->steps_of(p);
    int at = alive_count++;
    for (; at > 0 && feed_->steps_of(order_[at - 1]) > steps; --at) {
      order_[at] = order_[at - 1];
    }
    order_[at] = p;
  });
  int vcount = params_.victims == 0 ? alive_count - 1 : params_.victims;
  vcount = std::clamp(vcount, 0, alive_count - 1);
  active_ = alive_count - vcount;
  release_end_ = alive_count;
  // Reactive growth: the epoch lasts as long as the oldest window the
  // run has produced so far (the peak silence, sampled step by step in
  // next()), plus the base stretch — so silent stretches keep getting
  // longer, which no fixed-scale oblivious family does.
  epoch_left_ = params_.stretch + peak_silence_;
}

Pid WindowStretcherGenerator::next() {
  peak_silence_ = std::max(peak_silence_, feed_->max_silence());
  if (epoch_left_ == 0) {
    if (release_end_ > active_) {
      // One step per victim between epochs: everybody keeps taking
      // infinitely many steps, as the model's correctness requires.
      return order_[--release_end_];
    }
    begin_epoch();
  }
  --epoch_left_;
  return order_[rng_.next_below(size_bound(active_))];
}

DecisionChaserGenerator::DecisionChaserGenerator(
    const ReactiveParams& params, std::uint64_t seed,
    std::shared_ptr<ObservationFeed> feed)
    : ReactiveGenerator(std::move(feed)),
      params_(params),
      rng_(reactive_seed(seed, 1)),
      until_release_(params.stretch) {
  validate(params);
  SETLIB_EXPECTS(params.n == n());
}

Pid DecisionChaserGenerator::next() {
  const ProcSet alive_set = alive();
  const int alive_count = alive_set.size();
  if (--until_release_ == 0) {
    // Liveness release every `stretch` steps: round-robin over the
    // alive set, so even the chased processes step infinitely often.
    // The cursor may exceed a set that shrank since its last use.
    until_release_ = params_.stretch;
    int at = rr_;
    while (at >= alive_count) at -= alive_count;
    rr_ = at + 1 == alive_count ? 0 : at + 1;
    return alive_set.nth(at);
  }
  // Victims = the alive, undecided processes nearest to deciding
  // (published progress, or step counts as the proxy), re-targeted
  // every step as the frontier moves: repeated argmax over the chased
  // set, ties to the lower pid, which is the order a stable sort by
  // descending progress gives.
  int vcount = params_.victims == 0 ? 1 : params_.victims;
  vcount = std::clamp(vcount, 0, alive_count - 1);
  ProcSet victims;
  ProcSet chased = alive_set - feed_->decided_set();
  for (int v = 0; v < vcount && !chased.empty(); ++v) {
    Pid top = -1;
    std::int64_t best = -1;
    chased.for_each([&](Pid p) {
      const std::int64_t progress = feed_->progress_of(p);
      const bool ahead = progress > best;
      best = ahead ? progress : best;
      top = ahead ? p : top;
    });
    victims = victims.with(top);
    chased = chased.without(top);
  }
  ProcSet pool = alive_set - victims;
  if (pool.empty()) pool = alive_set;
  return draw_member(rng_, pool);
}

BudgetCrasherGenerator::BudgetCrasherGenerator(
    const ReactiveParams& params, std::uint64_t seed,
    std::shared_ptr<ObservationFeed> feed)
    : ReactiveGenerator(std::move(feed)),
      params_(params),
      rng_(reactive_seed(seed, 2)),
      budget_left_(std::min(params.crash_budget, params.n - 1)),
      plan_(reactive_seed(seed, 3)),
      checkpoints_left_(budget_left_) {
  validate(params);
  SETLIB_EXPECTS(params.n == n());
  // Seeded fallback checkpoints: when no published progress crosses
  // the threshold, the budget is still spent, at these steps.
  if (checkpoints_left_ > 0) {
    next_checkpoint_ = plan_.next_in(params_.stretch, 8 * params_.stretch);
  }
}

void BudgetCrasherGenerator::maybe_spend_budget() {
  if (budget_left_ <= 0) return;
  const ProcSet alive_set = alive();
  if (alive_set.size() <= 1) return;  // somebody must keep stepping
  // Worst moment #1: a process is about to decide (published progress
  // crossed the threshold). Crash the most advanced such process.
  Pid target = -1;
  std::int64_t best = -1;
  alive_set.for_each([&](Pid p) {
    if (!feed_->has_progress(p) || feed_->decided(p)) return;
    const std::int64_t progress = feed_->progress_of(p);
    if (progress >= params_.decide_threshold && progress > best) {
      best = progress;
      target = p;
    }
  });
  // Worst moment #2 (fallback): a seeded checkpoint came due. Crash
  // the most advanced alive process.
  if (target < 0 && checkpoints_left_ > 0 &&
      feed_->total_steps() >= next_checkpoint_) {
    if (--checkpoints_left_ > 0) {
      next_checkpoint_ +=
          plan_.next_in(params_.stretch, 8 * params_.stretch);
    }
    best = -1;
    alive_set.for_each([&](Pid p) {
      const std::int64_t progress = feed_->progress_of(p);
      if (progress > best) {
        best = progress;
        target = p;
      }
    });
  }
  if (target >= 0) {
    requested_ = requested_.with(target);
    feed_->record_crash(target);
    --budget_left_;
  }
}

Pid BudgetCrasherGenerator::next() {
  maybe_spend_budget();
  return draw_member(rng_, alive());
}

const std::vector<ReactiveInfo>& reactive_adversaries() {
  static const std::vector<ReactiveInfo> kinds = {
      {ReactiveKind::kWindowStretcher, "window-stretcher",
       "feed-scaled silencing epochs; stretches grow with the oldest "
       "observed window"},
      {ReactiveKind::kDecisionChaser, "decision-chaser",
       "silences the alive undecided processes nearest to deciding"},
      {ReactiveKind::kBudgetCrasher, "budget-crasher",
       "spends the t crash budget at observed worst moments"},
  };
  return kinds;
}

const ReactiveInfo* find_reactive(std::string_view name) {
  for (const ReactiveInfo& info : reactive_adversaries()) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

std::unique_ptr<ReactiveGenerator> make_reactive(
    ReactiveKind kind, const ReactiveParams& params, std::uint64_t seed,
    std::shared_ptr<ObservationFeed> feed) {
  validate(params);
  if (feed == nullptr) feed = std::make_shared<ObservationFeed>(params.n);
  SETLIB_EXPECTS(feed->n() == params.n);
  switch (kind) {
    case ReactiveKind::kWindowStretcher:
      return std::make_unique<WindowStretcherGenerator>(params, seed,
                                                        std::move(feed));
    case ReactiveKind::kDecisionChaser:
      return std::make_unique<DecisionChaserGenerator>(params, seed,
                                                       std::move(feed));
    case ReactiveKind::kBudgetCrasher:
      return std::make_unique<BudgetCrasherGenerator>(params, seed,
                                                      std::move(feed));
  }
  SETLIB_ASSERT(false);
  return nullptr;
}

Schedule generate_observed(ReactiveGenerator& gen, std::int64_t steps) {
  SETLIB_EXPECTS(steps >= 0);
  Schedule out(gen.n());
  for (std::int64_t i = 0; i < steps; ++i) {
    const Pid p = gen.next();
    out.append(p);
    gen.feed_ptr()->record_step(p);
  }
  return out;
}

}  // namespace setlib::sched
