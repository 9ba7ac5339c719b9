#include "src/bg/bg_sim.h"

#include <string>

#include "src/util/assert.h"

namespace setlib::bg {

BGSimulation::BGSimulation(shm::IMemory& mem, Params params,
                           ThreadFactory factory)
    : params_(params), sim_schedule_(params.threads) {
  SETLIB_EXPECTS(params.simulators >= 1 &&
                 params.simulators <= kMaxProcs);
  SETLIB_EXPECTS(params.threads >= 1 && params.threads <= kMaxProcs);
  SETLIB_EXPECTS(params.horizon >= 1);
  SETLIB_EXPECTS(factory != nullptr);

  cells_base_ = mem.alloc_array(
      "bg.cell", static_cast<std::int64_t>(params.threads) *
                     static_cast<std::int64_t>(params.simulators));
  idle_reg_ = mem.alloc("bg.idle");

  sa_.reserve(static_cast<std::size_t>(params.threads) *
              static_cast<std::size_t>(params.horizon));
  for (int u = 0; u < params.threads; ++u) {
    for (int s = 0; s < params.horizon; ++s) {
      sa_.push_back(std::make_unique<SafeAgreement>(
          mem, params.simulators,
          "bg.sa." + std::to_string(u) + "." + std::to_string(s)));
    }
  }

  state_.resize(static_cast<std::size_t>(params.simulators));
  last_blocked_.assign(
      static_cast<std::size_t>(params.simulators),
      std::vector<bool>(static_cast<std::size_t>(params.threads), false));
  for (int sim = 0; sim < params.simulators; ++sim) {
    auto& row = state_[static_cast<std::size_t>(sim)];
    row.resize(static_cast<std::size_t>(params.threads));
    for (int u = 0; u < params.threads; ++u) {
      auto& st = row[static_cast<std::size_t>(u)];
      st.program = factory(u);
      SETLIB_ASSERT(st.program != nullptr);
      st.proposed.assign(static_cast<std::size_t>(params.horizon), false);
    }
  }
  applied_.assign(
      static_cast<std::size_t>(params.threads),
      std::vector<bool>(static_cast<std::size_t>(params.horizon) + 1,
                        false));
}

shm::RegisterId BGSimulation::sim_cell(int u, int sim) const {
  SETLIB_EXPECTS(u >= 0 && u < params_.threads);
  SETLIB_EXPECTS(sim >= 0 && sim < params_.simulators);
  return cells_base_ + static_cast<std::int64_t>(u) * params_.simulators +
         sim;
}

SafeAgreement& BGSimulation::sa(int u, std::int64_t s) {
  SETLIB_EXPECTS(u >= 0 && u < params_.threads);
  SETLIB_EXPECTS(s >= 1 && s <= params_.horizon);
  return *sa_[static_cast<std::size_t>(u) *
                  static_cast<std::size_t>(params_.horizon) +
              static_cast<std::size_t>(s - 1)];
}

void BGSimulation::note_applied(int u, std::int64_t s) {
  auto flag = applied_[static_cast<std::size_t>(u)].begin() + s;
  if (!*flag) {
    *flag = true;
    sim_schedule_.append(u);
  }
}

shm::Prog BGSimulation::run(Pid sim) {
  // Eager validation; see KAntiOmega::run for why.
  SETLIB_EXPECTS(sim >= 0 && sim < params_.simulators);
  return run_impl(sim);
}

shm::Prog BGSimulation::run_impl(Pid sim) {
  const int n = params_.threads;
  const int m = params_.simulators;
  auto& threads = state_[static_cast<std::size_t>(sim)];
  auto& blocked_row = last_blocked_[static_cast<std::size_t>(sim)];
  int rr = sim % n;  // stagger starting threads across simulators

  for (;;) {
    bool progressed = false;
    for (int off = 0; off < n; ++off) {
      const int u = (rr + off) % n;
      auto& st = threads[static_cast<std::size_t>(u)];
      if (st.halted || st.next_step > params_.horizon) continue;

      if (st.next_step == 0) {
        // Initial write: deterministic, no agreement needed.
        const std::int64_t w = st.program->initial_write();
        co_await shm::write(sim_cell(u, sim), shm::Value::of(1, w));
        st.next_step = 1;
        note_applied(u, 0);
        progressed = true;
        continue;
      }

      const std::int64_t s = st.next_step;
      SafeAgreement& agreement = sa(u, s);
      SafeAgreement::Outcome outcome;
      bool blocked = false;
      co_await agreement.try_resolve(sim, &outcome, &blocked);

      if (!outcome.decided &&
          !st.proposed[static_cast<std::size_t>(s - 1)]) {
        // Build a proposal: collect the whole cell matrix; each
        // simulated cell's current value is the entry with the highest
        // simulated step among the simulators' copies.
        std::vector<std::int64_t> flat;
        flat.reserve(static_cast<std::size_t>(2 * n));
        for (int v = 0; v < n; ++v) {
          std::int64_t best_step = 0;
          std::int64_t best_val = 0;
          for (int i = 0; i < m; ++i) {
            const shm::Value cell = co_await shm::read(sim_cell(v, i));
            if (!cell.is_nil() && cell.at(0) > best_step) {
              best_step = cell.at(0);
              best_val = cell.at(1);
            }
          }
          flat.push_back(best_step);
          flat.push_back(best_val);
        }
        st.proposed[static_cast<std::size_t>(s - 1)] = true;
        co_await agreement.propose(sim, shm::Value(std::move(flat)));
        co_await agreement.try_resolve(sim, &outcome, &blocked);
      }

      if (!outcome.decided) {
        blocked_row[static_cast<std::size_t>(u)] = true;
        continue;  // unresolved (someone mid-unsafe-zone); revisit later
      }
      blocked_row[static_cast<std::size_t>(u)] = false;

      // Apply the agreed collect to the local automaton instance.
      const shm::Value& agreed = outcome.value;
      SETLIB_ASSERT(agreed.size() ==
                    static_cast<std::size_t>(2 * n));
      std::vector<SimThreadProgram::CellView> views(
          static_cast<std::size_t>(n));
      for (int v = 0; v < n; ++v) {
        views[static_cast<std::size_t>(v)].step =
            agreed.at(static_cast<std::size_t>(2 * v));
        views[static_cast<std::size_t>(v)].value =
            agreed.at(static_cast<std::size_t>(2 * v + 1));
      }
      const auto action = st.program->on_snapshot(s, views);
      note_applied(u, s);
      if (action.halt) {
        st.halted = true;
        st.decision = action.decision;
      } else {
        co_await shm::write(sim_cell(u, sim),
                            shm::Value::of(s + 1, action.write_value));
      }
      st.next_step = s + 1;
      progressed = true;
    }
    rr = (rr + 1) % n;
    if (!progressed) {
      // Every thread is blocked, halted, or beyond the horizon from this
      // simulator's view; keep taking (idle) steps so the simulator
      // remains correct in the schedule.
      co_await shm::read(idle_reg_);
    }
  }
}

std::int64_t BGSimulation::steps_of(int sim, int u) const {
  SETLIB_EXPECTS(sim >= 0 && sim < params_.simulators);
  SETLIB_EXPECTS(u >= 0 && u < params_.threads);
  return state_[static_cast<std::size_t>(sim)][static_cast<std::size_t>(u)]
      .next_step;
}

std::optional<std::int64_t> BGSimulation::thread_decision(int sim,
                                                          int u) const {
  SETLIB_EXPECTS(sim >= 0 && sim < params_.simulators);
  SETLIB_EXPECTS(u >= 0 && u < params_.threads);
  const auto& st =
      state_[static_cast<std::size_t>(sim)][static_cast<std::size_t>(u)];
  if (!st.halted) return std::nullopt;
  return st.decision;
}

ProcSet BGSimulation::blocked_threads() const {
  // A thread counts as blocked if every simulator's last attempt on it
  // found its safe agreement unresolved.
  ProcSet out;
  for (int u = 0; u < params_.threads; ++u) {
    bool all_blocked = true;
    for (int sim = 0; sim < params_.simulators; ++sim) {
      if (!last_blocked_[static_cast<std::size_t>(sim)]
                        [static_cast<std::size_t>(u)]) {
        all_blocked = false;
        break;
      }
    }
    if (all_blocked) out = out.with(u);
  }
  return out;
}

}  // namespace setlib::bg
