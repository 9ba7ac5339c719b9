// Multi-shot (t, k, n)-agreement: a sequence of independent agreement
// slots sharing one Figure 2 detector — the "state machine
// replication" shape of the paper's stack. For k = 1 this is a
// replicated log (all correct processes decide the same command per
// slot); for k > 1 each slot tolerates up to k concurrent branches, a
// "k-forking" log.
//
// Per process there is a single driver task that works through the
// slots in order. Within a slot it races the slot's k Paxos instance
// programs with shm::first_of (instance m led by the m-th member of the
// detector's current winnerset; one register operation each per step,
// round-robin) until one of them decides locally, then advances. Slots
// are independent Paxos instances, so per-slot safety is unconditional,
// and liveness per slot follows from detector stabilization exactly as
// in the single-shot case.
#ifndef SETLIB_AGREEMENT_MULTISHOT_H
#define SETLIB_AGREEMENT_MULTISHOT_H

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/agreement/paxos.h"
#include "src/fd/kantiomega.h"
#include "src/shm/memory.h"
#include "src/shm/process.h"
#include "src/util/procset.h"

namespace setlib::agreement {

class MultiShotAgreement {
 public:
  struct Params {
    int n = 0;
    int k = 0;
    int t = 0;
    int slots = 0;
  };

  MultiShotAgreement(shm::SimMemory& mem, Params params,
                     const fd::KAntiOmega* detector);

  /// Install the driver task for process p. `commands[s]` is p's
  /// proposal for slot s (commands.size() == slots); they are copied
  /// into the log's own table, so the caller's storage may go.
  void install(shm::ProcessRuntime& proc, Pid p,
               std::span<const std::int64_t> commands);

  /// p's decided value for slot s (nullopt = not yet decided locally).
  std::optional<std::int64_t> log_at(Pid p, int slot) const;

  /// Number of consecutive decided slots starting at 0.
  int decided_prefix(Pid p) const;

  bool all_decided(ProcSet who) const;

  /// Distinct values decided for `slot` across deciders in `who`
  /// (k-agreement requires <= k of them).
  std::vector<std::int64_t> slot_values(int slot, ProcSet who) const;

  /// slot_values' size and smallest element, counted in place.
  struct SlotTally {
    int distinct = 0;
    std::int64_t smallest = 0;  // meaningful when distinct > 0
  };
  SlotTally slot_tally(int slot, ProcSet who) const;

  const Params& params() const noexcept { return params_; }

 private:
  struct Entry {
    std::int64_t command = 0;             // p's proposal for the slot
    std::optional<std::int64_t> decided;  // nullopt = not yet decided
  };

  shm::Prog driver(Pid p);
  PaxosConsensus& instance(int slot, int m);
  std::size_t at(Pid p, int slot) const;  // index into log_

  Params params_;
  const fd::KAntiOmega* detector_;
  std::vector<PaxosConsensus> instances_;  // [slot*k + m]
  // log_[p * slots + s]: p's command and decision for slot s.
  std::vector<Entry> log_;
};

}  // namespace setlib::agreement

#endif  // SETLIB_AGREEMENT_MULTISHOT_H
