// Wait-free commit-adopt from read/write registers.
//
// Commit-adopt (graded agreement) is the classic two-collect building
// block: propose(v) returns (commit|adopt, w) such that
//   - validity: w is some process's proposal;
//   - convergence: if all participants propose the same v, every
//     returner commits v;
//   - agreement: if anyone commits w, every returner's value is w.
// It is wait-free (2 writes + 2n reads) and works for any number of
// participants. We use it as an independently tested substrate and in
// the safe-agreement/BG layer's tests; the consensus used by the k-set
// solver is the Paxos in paxos.h.
#ifndef SETLIB_AGREEMENT_COMMIT_ADOPT_H
#define SETLIB_AGREEMENT_COMMIT_ADOPT_H

#include <cstdint>
#include <string>

#include "src/shm/memory.h"
#include "src/shm/program.h"
#include "src/util/procset.h"

namespace setlib::agreement {

class CommitAdopt {
 public:
  struct Outcome {
    bool done = false;      // set when propose() returns
    bool committed = false;
    std::int64_t value = 0;
  };

  /// One-shot object for up to n participants.
  CommitAdopt(shm::SimMemory& mem, int n, const std::string& name);

  /// Process p proposes v; the result is deposited in *out (owned by
  /// the caller, must outlive the task).
  shm::Prog propose(Pid p, std::int64_t v, Outcome* out);

  int n() const noexcept { return n_; }

 private:
  shm::Prog propose_impl(Pid p, std::int64_t v, Outcome* out);

  int n_;
  shm::RegisterId phase1_base_;  // A[q]: {v} once proposed
  shm::RegisterId phase2_base_;  // B[q]: {flag, v}
};

}  // namespace setlib::agreement

#endif  // SETLIB_AGREEMENT_COMMIT_ADOPT_H
