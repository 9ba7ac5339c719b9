// Safe agreement from read/write registers (the BG simulation's core
// synchronization object [6]).
//
// Properties:
//   - validity: any decided value was proposed;
//   - agreement: all decided values are equal;
//   - safe termination: resolve() succeeds once every proposer that
//     entered the "unsafe zone" has left it. A process that crashes
//     inside its unsafe zone can block the object forever — that is the
//     defining trade-off BG exploits (one blocked object per crashed
//     simulator).
//
// Construction ("levels"): each participant i owns a single-writer cell
// {level, payload}. propose: write level 1 (enter unsafe zone); take an
// atomic snapshot of the cells (double-collect until stable — levels
// change at most twice per participant, so this is wait-free here); if
// any level-2 cell is visible, retreat to level 0, else advance to
// level 2 (leave unsafe zone). resolve: snapshot; blocked while any
// level-1 cell exists; otherwise decide the payload of the
// smallest-index level-2 cell. With atomic snapshots the level-2 set is
// frozen once any clean snapshot exists, so deciders agree.
//
// Threading model: lock-free by design — the levels protocol above IS
// the synchronization, carried by single-writer registers of the
// SimMemory. The class itself holds only thread-owned state and needs no
// mutex or thread-safety annotations.
#ifndef SETLIB_BG_SAFE_AGREEMENT_H
#define SETLIB_BG_SAFE_AGREEMENT_H

#include <cstdint>
#include <string>

#include "src/shm/memory.h"
#include "src/shm/program.h"
#include "src/shm/value.h"
#include "src/util/procset.h"

namespace setlib::bg {

class SafeAgreement {
 public:
  struct Outcome {
    bool decided = false;
    shm::Value value;
  };

  SafeAgreement(shm::SimMemory& mem, int participants,
                const std::string& name);

  /// Enter and (unless crashed mid-way) leave the unsafe zone with
  /// payload v. Run inline with co_await from a simulator program,
  /// or as a standalone task in unit tests.
  shm::Prog propose(Pid i, shm::Value v);

  /// One resolution attempt: *blocked = true if some participant is in
  /// its unsafe zone or nothing was proposed yet; otherwise decides.
  shm::Prog try_resolve(Pid i, Outcome* out, bool* blocked);

  int participants() const noexcept { return m_; }
  shm::RegisterId cell_reg(Pid i) const;

 private:
  shm::Prog propose_impl(Pid i, shm::Value v);
  shm::Prog try_resolve_impl(Pid i, Outcome* out, bool* blocked);

  int m_;
  shm::RegisterId cells_base_;
};

}  // namespace setlib::bg

#endif  // SETLIB_BG_SAFE_AGREEMENT_H
