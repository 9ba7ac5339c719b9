// (t, k, n)-agreement from the stabilized k-anti-Omega winnerset
// (Theorem 24's algorithmic content, with the reduction of [21]
// instantiated by an Omega_k-style construction — see DESIGN.md).
//
// Every process runs k Paxos instances; the leader oracle of instance m
// is "the m-th smallest member of my detector's current winnerset".
// Once the detector stabilizes (Lemma 22), instance m has the same
// stable leader everywhere, and at least one winnerset member is
// correct (Lemma 20), so at least one instance decides; its decision
// register propagates to every correct process. At most k instances
// exist and each decides at most one value, hence at most k distinct
// decisions; Paxos validity gives validity.
#ifndef SETLIB_AGREEMENT_KSET_H
#define SETLIB_AGREEMENT_KSET_H

#include <cstdint>
#include <vector>

#include "src/agreement/paxos.h"
#include "src/fd/kantiomega.h"
#include "src/shm/memory.h"
#include "src/shm/process.h"
#include "src/util/procset.h"

namespace setlib::agreement {

class KSetAgreement {
 public:
  struct Params {
    int n = 0;
    int k = 0;
    int t = 0;
  };

  struct Outcome {
    bool decided = false;
    std::int64_t value = 0;
    int via_instance = -1;
  };

  /// `detector` must outlive this object and be driven by tasks
  /// installed alongside (Engine wires both).
  KSetAgreement(shm::SimMemory& mem, Params params,
                const fd::KAntiOmega* detector);

  /// Adds the k Paxos instance tasks for process p (proposal = p's
  /// initial value) to p's runtime. The detector task itself must also
  /// be installed by the caller.
  void install(shm::ProcessRuntime& proc, Pid p, std::int64_t proposal);

  const Outcome& outcome(Pid p) const;
  bool decided(Pid p) const { return outcome(p).decided; }

  /// All processes in `who` have decided.
  bool all_decided(ProcSet who) const;

  /// Distinct decision values among deciders in `who`.
  std::vector<std::int64_t> distinct_decisions(ProcSet who) const;

  const Params& params() const noexcept { return params_; }
  const PaxosConsensus& instance(int m) const;

 private:
  Params params_;
  const fd::KAntiOmega* detector_;
  // Both sized once in the constructor and never resized: installed
  // tasks hold pointers into them.
  std::vector<PaxosConsensus> instances_;
  // statuses_[m * n + p]: status of instance m at process p.
  std::vector<PaxosConsensus::Status> statuses_;
  std::vector<Outcome> outcomes_;
};

}  // namespace setlib::agreement

#endif  // SETLIB_AGREEMENT_KSET_H
