// Shared-memory Paxos (Disk Paxos with one block per process).
//
// Safety (agreement + validity) holds under full asynchrony and any
// number of crashes; termination holds once the leader oracle is stable
// at a unique correct leader — which is exactly what the stabilized
// winnerset of the Figure 2 detector supplies per instance (kset.h).
//
// Layout: each process q owns a single-writer register block
//   R[q] = {mbal, bal, val, has}
// (the model's registers hold arbitrary values, so the block is one
// atomic register), plus a multi-writer decision register D. A leader at
// ballot b (b == self mod n, strictly increasing):
//   phase 1: write own block with mbal=b; collect; abort on any
//            mbal' > b; pick the value of the highest bal' seen (or its
//            own proposal if none);
//   phase 2: write own block with bal=b and the picked value; collect;
//            abort on any mbal' > b; otherwise decide (write D).
// Non-leaders spin on D (one read per loop iteration, so every loop
// path performs a register operation and the task stays step-driven).
//
// Threading model: no locks here — safety is the ballot protocol over
// single-writer register blocks, executed through IMemory. Each
// PaxosProcess instance is owned by one (simulated or real) process;
// concurrency control lives in the memory implementation.
#ifndef SETLIB_AGREEMENT_PAXOS_H
#define SETLIB_AGREEMENT_PAXOS_H

#include <cstdint>
#include <functional>
#include <string_view>

#include "src/shm/memory.h"
#include "src/shm/program.h"
#include "src/util/procset.h"

namespace setlib::agreement {

class PaxosConsensus {
 public:
  /// Leader oracle: given the querying process, the pid it currently
  /// trusts as leader. May change over time (detector-driven).
  using LeaderFn = std::function<Pid(Pid self)>;

  struct Status {
    bool decided = false;
    std::int64_t value = 0;
    std::int64_t ballots_started = 0;  // telemetry
  };

  /// Registers: `name`.R[q] (the blocks) and `name`.D (the decision).
  PaxosConsensus(shm::IMemory& mem, int n, std::string_view name);

  /// The per-process task. Terminates (task completes) once p observes
  /// a decision; on_decide (optional) fires at that local moment.
  shm::Prog run(Pid p, std::int64_t proposal, LeaderFn leader,
                Status* status,
                std::function<void(std::int64_t)> on_decide = nullptr);

  int n() const noexcept { return n_; }
  shm::RegisterId block_reg(Pid q) const;
  shm::RegisterId decision_reg() const noexcept { return decision_; }

 private:
  shm::Prog run_impl(Pid p, std::int64_t proposal, LeaderFn leader,
                     Status* status,
                     std::function<void(std::int64_t)> on_decide);

  int n_;
  shm::RegisterId blocks_base_;
  shm::RegisterId decision_;
};

}  // namespace setlib::agreement

#endif  // SETLIB_AGREEMENT_PAXOS_H
