// The trivial algorithm for (t, k, n)-agreement when k > t (the "it is
// trivial to solve ... in the asynchronous system" step of Corollary
// 25): each process writes its value, collects until at least n - t
// values are visible, and decides the value of the smallest-id writer
// it saw. Because at most t of the first t+1 processes can be missing
// from a collect of >= n - t values, the decided smallest-id writer is
// always among processes 0..t, so there are at most t + 1 <= k distinct
// decisions; validity and (<= t crash) termination are immediate.
#ifndef SETLIB_AGREEMENT_TRIVIAL_H
#define SETLIB_AGREEMENT_TRIVIAL_H

#include <cstdint>
#include <vector>

#include "src/shm/memory.h"
#include "src/shm/program.h"
#include "src/util/procset.h"

namespace setlib::agreement {

class TrivialAgreement {
 public:
  struct Outcome {
    bool decided = false;
    std::int64_t value = 0;
    Pid from = -1;  // the writer whose value was adopted
  };

  TrivialAgreement(shm::SimMemory& mem, int n, int t);

  /// Task for process p. Terminates once p decides.
  shm::Prog run(Pid p, std::int64_t proposal, Outcome* out);

  int n() const noexcept { return n_; }
  int t() const noexcept { return t_; }

 private:
  shm::Prog run_impl(Pid p, std::int64_t proposal, Outcome* out);

  int n_;
  int t_;
  shm::RegisterId values_base_;
};

}  // namespace setlib::agreement

#endif  // SETLIB_AGREEMENT_TRIVIAL_H
