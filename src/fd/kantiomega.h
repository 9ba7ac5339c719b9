// The Figure 2 algorithm: t-resilient k-anti-Omega in S^k_{t+1,n}.
//
// Transcription of the paper's pseudocode (line numbers in run()):
//   shared:  Heartbeat[p] for p in Pi_n; Counter[A, q] for A in Pi_n^k,
//            q in Pi_n (both monotonically nondecreasing, single-writer).
//   loop:    read the whole Counter matrix; accusation[A] := (t+1)-st
//            smallest of cnt[A, *]; winnerset := argmin (accusation[A],
//            A) under a total order on Pi_n^k; fdOutput := Pi_n -
//            winnerset; bump own heartbeat; reset the step-count timer
//            of every set containing a process whose heartbeat
//            advanced; decrement all timers, and on expiry grow that
//            set's timeout (adaptive) and increment own badness entry
//            Counter[A, p].
//
// Guarantee (Theorem 23): in any run of S^k_{t+1,n} with at most t
// crashes, there is a correct process c and a time after which no
// correct process's fdOutput contains c. Our implementation moreover
// exhibits the stronger property the proof establishes (Lemma 22): all
// correct processes eventually output the same stabilized winnerset A0,
// which contains a correct process. The agreement layer builds on that.
#ifndef SETLIB_FD_KANTIOMEGA_H
#define SETLIB_FD_KANTIOMEGA_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/shm/memory.h"
#include "src/shm/program.h"
#include "src/util/procset.h"

namespace setlib::fd {

class KAntiOmega {
 public:
  struct Params {
    int n = 0;
    int k = 0;
    int t = 0;
    std::int64_t initial_timeout = 1;  // paper: timeout[A] starts at 1

    /// Which order statistic of Counter[A, *] is the accusation counter
    /// (1-based). 0 selects the paper's choice, t+1 — the only value
    /// that tolerates t frozen-at-zero entries from crashed processes
    /// (quantile <= t fails) while needing only the t+1 timely
    /// observers' entries to freeze (quantile >= t+2 fails). The
    /// ablation bench demonstrates both failure modes.
    int accusation_quantile = 0;
  };

  /// Most recent detector output at one process (its local variables
  /// fdOutput / winnerset after line 5), plus stabilization telemetry.
  struct View {
    ProcSet winnerset;
    ProcSet fd_output;
    std::int64_t winner_accusation = -1;
    std::int64_t iterations = 0;          // completed loop iterations
    std::int64_t winnerset_changes = 0;   // times winnerset switched sets
    std::int64_t last_change_iteration = 0;
    /// last_excluded[c]: the latest iteration whose winnerset did NOT
    /// contain c (0 = never excluded so far). Drives the abstract
    /// k-anti-Omega property check: c is "eventually trusted" by this
    /// process if it has not been excluded for a trailing window. A
    /// slice of the detector's buffer.
    std::span<std::int64_t> last_excluded;
  };

  KAntiOmega(shm::SimMemory& mem, Params params);
  // Views and tasks point into buffer_.
  KAntiOmega(const KAntiOmega&) = delete;
  KAntiOmega& operator=(const KAntiOmega&) = delete;

  const Params& params() const noexcept { return params_; }
  const SubsetRanker& ranker() const noexcept { return ranker_; }

  /// The Figure 2 infinite loop for process p; add as a task to p's
  /// ProcessRuntime. The KAntiOmega object must outlive the run, and
  /// each process gets one task: its local variables are p's slice of
  /// the detector's buffer.
  shm::Prog run(Pid p);

  const View& view(Pid p) const;

  /// Register ids, exposed so experiments can inspect the shared state
  /// (e.g. verify Lemmas 10-17 on Counter[A, q] trajectories).
  shm::RegisterId heartbeat_reg(Pid q) const;
  shm::RegisterId counter_reg(std::int64_t set_rank, Pid q) const;

  /// True once every process in `alive` reports the same winnerset and
  /// none of them has changed it within their last `window` iterations.
  bool stabilized(ProcSet alive, std::int64_t window) const;

  /// Processes c that every process in `alive` has kept in its
  /// winnerset for its last `window` iterations. The abstract
  /// t-resilient k-anti-Omega property holds on a finite run exactly
  /// when this set intersects the correct set (there is a correct c no
  /// correct process excludes any more). Nonempty under stabilization;
  /// may be nonempty without full stabilization.
  ProcSet trusted_candidates(ProcSet alive, std::int64_t window) const;

  /// The common winnerset (requires stabilized-like agreement among
  /// `alive`; returns the view of the lowest alive pid).
  ProcSet common_winnerset(ProcSet alive) const;

 private:
  shm::Prog run_impl(Pid p);

  Params params_;
  SubsetRanker ranker_;
  std::vector<ProcSet> subsets_;  // Pi_n^k in rank order
  shm::RegisterId heartbeat_base_;
  shm::RegisterId counter_base_;
  std::vector<View> views_;
  // One allocation for every process's last_excluded (n words each)
  // followed by every task's local variables (task_words_ each).
  std::vector<std::int64_t> buffer_;
  std::size_t task_words_ = 0;
  ProcSet tasks_started_;
};

}  // namespace setlib::fd

#endif  // SETLIB_FD_KANTIOMEGA_H
