// The BG simulation substrate (Borowsky-Gafni [6], as used in the proof
// of Theorem 26 case 2b).
//
// m simulator processes jointly execute n >= m simulated threads of a
// deterministic full-information protocol in the write/collect model:
// thread u alternates "write own cell" and "collect all cells", and the
// only nondeterminism — what a collect returns — is settled with one
// safe-agreement object per (thread, step). Each simulator enters at
// most one unsafe zone at a time, so a simulator crash blocks at most
// one thread: at most m - 1 simulated crashes (the paper's property
// (i)). Live threads are advanced round-robin, so the simulated
// schedule keeps every non-blocked thread timely — each set of m
// processes is timely w.r.t. the set of all n simulated processes (the
// paper's property (ii): the simulated schedule lies in S^m_{n,n});
// experiments verify both properties with the analyzer.
//
// Substitution note (see DESIGN.md): proposals are built from plain
// collects (a sequence of reads), i.e. the simulated model is
// write/collect rather than atomic-snapshot; agreement across
// simulators comes entirely from the safe-agreement objects, which is
// what properties (i)/(ii) and decision determinism need.
//
// Threading model: the simulation is a protocol expressed as register
// steps; it owns no locks. All cross-simulator synchronization is the
// safe-agreement objects' register protocol, executed on the SimMemory
// (serialized by the Simulator).
#ifndef SETLIB_BG_BG_SIM_H
#define SETLIB_BG_BG_SIM_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/bg/safe_agreement.h"
#include "src/sched/schedule.h"
#include "src/shm/memory.h"
#include "src/shm/program.h"
#include "src/util/procset.h"

namespace setlib::bg {

/// A deterministic simulated thread in the write/collect model.
class SimThreadProgram {
 public:
  virtual ~SimThreadProgram() = default;

  struct CellView {
    std::int64_t step = 0;  // 0 = unwritten
    std::int64_t value = 0;
  };

  struct Action {
    bool halt = false;
    std::int64_t decision = 0;     // meaningful when halt
    std::int64_t write_value = 0;  // next cell value otherwise
  };

  /// The value written before the first collect (the thread's input).
  virtual std::int64_t initial_write() = 0;

  /// React to the agreed collect for step s (s = 1, 2, ...). The
  /// automaton may keep internal state; all simulators feed their own
  /// instance the identical agreed sequence, so states coincide.
  virtual Action on_snapshot(std::int64_t s,
                             const std::vector<CellView>& collect) = 0;
};

using ThreadFactory =
    std::function<std::unique_ptr<SimThreadProgram>(int thread_idx)>;

class BGSimulation {
 public:
  struct Params {
    int simulators = 0;  // m
    int threads = 0;     // n
    int horizon = 64;    // max simulated steps per thread
  };

  BGSimulation(shm::SimMemory& mem, Params params, ThreadFactory factory);

  /// Simulator i's main loop; install as the (single) task of process i.
  shm::Prog run(Pid sim);

  const Params& params() const noexcept { return params_; }

  /// Simulated steps completed for thread u from simulator sim's view.
  std::int64_t steps_of(int sim, int u) const;

  /// Decision of simulated thread u as computed by simulator sim
  /// (nullopt: not halted from that simulator's view).
  std::optional<std::int64_t> thread_decision(int sim, int u) const;

  /// Threads that some simulator observed blocked at its last attempt
  /// (safe agreement unresolved). Recomputed lazily by callers via
  /// steps_of stagnation; this set reflects the final loop pass.
  ProcSet blocked_threads() const;

  /// The simulated schedule: thread indices in the global order in
  /// which (thread, step) pairs were first applied by any simulator.
  const sched::Schedule& simulated_schedule() const noexcept {
    return sim_schedule_;
  }

 private:
  struct PerThreadState {
    std::unique_ptr<SimThreadProgram> program;
    std::int64_t next_step = 0;  // 0 = initial write pending
    bool halted = false;
    std::int64_t decision = 0;
    std::vector<bool> proposed;  // per step index
  };

  shm::Prog run_impl(Pid sim);
  shm::RegisterId sim_cell(int u, int sim) const;
  SafeAgreement& sa(int u, std::int64_t s);
  void note_applied(int u, std::int64_t s);

  Params params_;
  shm::RegisterId cells_base_;   // [u * m + sim] = {step, value}
  shm::RegisterId idle_reg_;
  std::vector<std::unique_ptr<SafeAgreement>> sa_;  // [u * horizon + (s-1)]
  // per-simulator simulated state: state_[sim][u]
  std::vector<std::vector<PerThreadState>> state_;
  std::vector<std::vector<bool>> last_blocked_;  // [sim][u]
  std::vector<std::vector<bool>> applied_;       // [u][s] (0 = initial)
  sched::Schedule sim_schedule_;
};

}  // namespace setlib::bg

#endif  // SETLIB_BG_BG_SIM_H
