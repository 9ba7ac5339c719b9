#include "src/fd/kantiomega.h"

#include <algorithm>
#include <span>

#include "src/util/assert.h"

namespace setlib::fd {

KAntiOmega::KAntiOmega(shm::IMemory& mem, Params params)
    : params_(params),
      ranker_(params.n, params.k),
      subsets_(k_subsets(params.n, params.k)) {
  SETLIB_EXPECTS(params.n >= 2 && params.n <= kMaxProcs);
  SETLIB_EXPECTS(params.k >= 1 && params.k <= params.n - 1);
  SETLIB_EXPECTS(params.t >= 1 && params.t <= params.n - 1);
  SETLIB_EXPECTS(params.initial_timeout >= 1);
  SETLIB_EXPECTS(params.accusation_quantile >= 0 &&
                 params.accusation_quantile <= params.n);
  if (params_.accusation_quantile == 0) {
    params_.accusation_quantile = params.t + 1;  // the paper's choice
  }
  const std::int64_t sets = ranker_.count();
  heartbeat_base_ = mem.alloc_array("Heartbeat", params.n);
  counter_base_ = mem.alloc_array("Counter", sets * params.n);
  views_.assign(static_cast<std::size_t>(params.n), View{});
  // Initial fdOutput: any set of n-k processes (paper's initialisation);
  // use the complement of the rank-0 subset.
  for (auto& v : views_) {
    v.winnerset = subsets_[0];
    v.fd_output = subsets_[0].complement(params.n);
    v.last_excluded.assign(static_cast<std::size_t>(params.n), 0);
  }
}

shm::RegisterId KAntiOmega::heartbeat_reg(Pid q) const {
  SETLIB_EXPECTS(q >= 0 && q < params_.n);
  return heartbeat_base_ + q;
}

shm::RegisterId KAntiOmega::counter_reg(std::int64_t set_rank, Pid q) const {
  SETLIB_EXPECTS(set_rank >= 0 && set_rank < ranker_.count());
  SETLIB_EXPECTS(q >= 0 && q < params_.n);
  return counter_base_ + set_rank * params_.n + q;
}

const KAntiOmega::View& KAntiOmega::view(Pid p) const {
  SETLIB_EXPECTS(p >= 0 && p < params_.n);
  return views_[static_cast<std::size_t>(p)];
}

shm::Prog KAntiOmega::run(Pid p) {
  // Validate eagerly: a coroutine body only runs at first resume, so
  // contract checks inside it would fire at the first step, not here.
  SETLIB_EXPECTS(p >= 0 && p < params_.n);
  return run_impl(p);
}

shm::Prog KAntiOmega::run_impl(Pid p) {
  const int n = params_.n;
  // Index of the accusation order statistic (0-based); t for the
  // paper's (t+1)-st smallest.
  const int q_idx = params_.accusation_quantile - 1;
  const std::int64_t sets = ranker_.count();
  View& view = views_[static_cast<std::size_t>(p)];

  // Local variables (per the figure's declarations), carved from one
  // buffer so a detector task allocates once.
  std::int64_t my_hb = 0;
  const auto un = static_cast<std::size_t>(n);
  const auto us = static_cast<std::size_t>(sets);
  std::vector<std::int64_t> locals(2 * un + 2 * us + us * un, 0);
  const std::span<std::int64_t> prev_heartbeat(locals.data(), un);
  const std::span<std::int64_t> row(prev_heartbeat.data() + un, un);
  const std::span<std::int64_t> timeout(row.data() + un, us);
  const std::span<std::int64_t> timer(timeout.data() + us, us);
  const std::span<std::int64_t> cnt(timer.data() + us, us * un);
  std::fill(timeout.begin(), timeout.end(), params_.initial_timeout);
  std::copy(timeout.begin(), timeout.end(), timer.begin());  // timer = timeout

  for (;;) {  // line 1: repeat forever
    // line 2: cnt[A, q] <- read(Counter[A, q]) for every (A, q)
    for (std::int64_t a = 0; a < sets; ++a) {
      for (Pid q = 0; q < n; ++q) {
        const shm::Value v = co_await shm::read(counter_reg(a, q));
        cnt[static_cast<std::size_t>(a * n + q)] = v.as_int_or(0);
      }
    }

    // lines 3-4: accusation[A] := (t+1)-st smallest of cnt[A, *];
    // winnerset := argmin over (accusation[A], A).
    std::int64_t best_acc = -1;
    std::int64_t best_rank = -1;
    for (std::int64_t a = 0; a < sets; ++a) {
      for (Pid q = 0; q < n; ++q) {
        row[static_cast<std::size_t>(q)] =
            cnt[static_cast<std::size_t>(a * n + q)];
      }
      std::nth_element(row.begin(), row.begin() + q_idx, row.end());
      const std::int64_t accusation = row[static_cast<std::size_t>(q_idx)];
      if (best_rank < 0 || accusation < best_acc) {
        best_acc = accusation;
        best_rank = a;
      }
      // Ties: subsets_ is iterated in rank order, which is the total
      // order used for the argmin tie-break, so a tie keeps the earlier
      // (smaller) set.
    }
    const ProcSet winner = subsets_[static_cast<std::size_t>(best_rank)];

    // line 5: fdOutput := Pi_n - winnerset (published to the local view).
    if (winner != view.winnerset) {
      ++view.winnerset_changes;
      view.last_change_iteration = view.iterations + 1;
    }
    view.winnerset = winner;
    view.fd_output = winner.complement(n);
    view.winner_accusation = best_acc;
    for (Pid c = 0; c < n; ++c) {
      if (!winner.contains(c)) {
        view.last_excluded[static_cast<std::size_t>(c)] =
            view.iterations + 1;
      }
    }

    // lines 6-7: bump own heartbeat.
    ++my_hb;
    co_await shm::write(heartbeat_reg(p), shm::Value::of(my_hb));

    // lines 8-13: observe heartbeats; reset timers of sets containing a
    // process whose heartbeat advanced.
    for (Pid q = 0; q < n; ++q) {
      const shm::Value v = co_await shm::read(heartbeat_reg(q));
      const std::int64_t hbq = v.as_int_or(0);
      if (hbq > prev_heartbeat[static_cast<std::size_t>(q)]) {
        for (std::int64_t a = 0; a < sets; ++a) {
          if (subsets_[static_cast<std::size_t>(a)].contains(q)) {
            timer[static_cast<std::size_t>(a)] =
                timeout[static_cast<std::size_t>(a)];
          }
        }
        prev_heartbeat[static_cast<std::size_t>(q)] = hbq;
      }
    }

    // lines 14-19: decrement timers; on expiry, grow the timeout and
    // increment own badness entry Counter[A, p] (using the value read
    // in line 2 — p is the only writer of Counter[A, p]).
    for (std::int64_t a = 0; a < sets; ++a) {
      auto& tm = timer[static_cast<std::size_t>(a)];
      tm -= 1;
      if (tm == 0) {
        auto& to = timeout[static_cast<std::size_t>(a)];
        to += 1;
        tm = to;
        const std::int64_t prev = cnt[static_cast<std::size_t>(a * n + p)];
        co_await shm::write(counter_reg(a, p), shm::Value::of(prev + 1));
      }
    }

    ++view.iterations;
  }
}

bool KAntiOmega::stabilized(ProcSet alive, std::int64_t window) const {
  SETLIB_EXPECTS(!alive.empty());
  SETLIB_EXPECTS(window >= 1);
  const View& first = view(alive.min());
  if (first.iterations < window) return false;
  bool stable = true;
  alive.for_each([&](Pid p) {
    const View& v = view(p);
    stable = stable && v.iterations >= window &&
             v.winnerset == first.winnerset &&
             v.iterations - v.last_change_iteration >= window;
  });
  return stable;
}

ProcSet KAntiOmega::trusted_candidates(ProcSet alive,
                                       std::int64_t window) const {
  SETLIB_EXPECTS(!alive.empty());
  SETLIB_EXPECTS(window >= 1);
  ProcSet out = ProcSet::universe(params_.n);
  bool warmed_up = true;
  alive.for_each([&](Pid p) {
    if (!warmed_up) return;
    const View& v = view(p);
    if (v.iterations < window) {
      warmed_up = false;
      return;
    }
    ProcSet kept;
    for (Pid c = 0; c < params_.n; ++c) {
      if (v.last_excluded[static_cast<std::size_t>(c)] <=
          v.iterations - window) {
        kept = kept.with(c);
      }
    }
    out = out & kept;
  });
  return warmed_up ? out : ProcSet();
}

ProcSet KAntiOmega::common_winnerset(ProcSet alive) const {
  SETLIB_EXPECTS(!alive.empty());
  return view(alive.min()).winnerset;
}

}  // namespace setlib::fd
