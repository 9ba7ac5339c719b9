#include "src/agreement/commit_adopt.h"

#include "src/util/assert.h"

namespace setlib::agreement {

CommitAdopt::CommitAdopt(shm::SimMemory& mem, int n, const std::string& name)
    : n_(n) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
  phase1_base_ = mem.alloc_array(name + ".A", n);
  phase2_base_ = mem.alloc_array(name + ".B", n);
}

shm::Prog CommitAdopt::propose(Pid p, std::int64_t v, Outcome* out) {
  // Eager validation; see KAntiOmega::run for why.
  SETLIB_EXPECTS(p >= 0 && p < n_);
  SETLIB_EXPECTS(out != nullptr);
  return propose_impl(p, v, out);
}

shm::Prog CommitAdopt::propose_impl(Pid p, std::int64_t v, Outcome* out) {

  // Phase 1: publish the proposal, then collect.
  co_await shm::write(phase1_base_ + p, shm::Value::of(v));
  bool all_same = true;
  std::int64_t common = v;
  bool saw_any = false;
  for (Pid q = 0; q < n_; ++q) {
    const shm::Value a = co_await shm::read(phase1_base_ + q);
    if (a.is_nil()) continue;
    if (!saw_any) {
      saw_any = true;
      common = a.at(0);
    } else if (a.at(0) != common) {
      all_same = false;
    }
  }
  SETLIB_ASSERT(saw_any);  // at least our own phase-1 write is visible

  // Phase 2: publish (flag, value), then collect.
  const std::int64_t flag = all_same ? 1 : 0;
  const std::int64_t mine = all_same ? common : v;
  co_await shm::write(phase2_base_ + p, shm::Value::of(flag, mine));

  bool all_flagged = true;
  bool any_flagged = false;
  std::int64_t flagged_value = 0;
  for (Pid q = 0; q < n_; ++q) {
    const shm::Value b = co_await shm::read(phase2_base_ + q);
    if (b.is_nil()) continue;
    if (b.at(0) == 1) {
      any_flagged = true;
      flagged_value = b.at(1);
    } else {
      all_flagged = false;
    }
  }

  if (any_flagged) {
    out->committed = all_flagged;
    out->value = flagged_value;
  } else {
    out->committed = false;
    out->value = mine;
  }
  out->done = true;
}

}  // namespace setlib::agreement
