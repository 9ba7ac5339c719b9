#include "src/agreement/paxos.h"

#include <algorithm>

#include "src/util/assert.h"

namespace setlib::agreement {

namespace {
// Block field indices within the register tuple.
constexpr std::size_t kMbal = 0;
constexpr std::size_t kBal = 1;
constexpr std::size_t kVal = 2;
constexpr std::size_t kHas = 3;
}  // namespace

PaxosConsensus::PaxosConsensus(shm::SimMemory& mem, int n,
                               std::string_view name)
    : n_(n) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
  blocks_base_ = mem.alloc_array(shm::RegisterName(name, ".R"), n);
  decision_ = mem.alloc(shm::RegisterName(name, ".D"));
}

shm::RegisterId PaxosConsensus::block_reg(Pid q) const {
  SETLIB_EXPECTS(q >= 0 && q < n_);
  return blocks_base_ + q;
}

shm::Prog PaxosConsensus::run(Pid p, std::int64_t proposal, LeaderFn leader,
                              Status* status,
                              std::function<void(std::int64_t)> on_decide) {
  // Eager validation; see KAntiOmega::run for why.
  SETLIB_EXPECTS(p >= 0 && p < n_);
  SETLIB_EXPECTS(status != nullptr);
  SETLIB_EXPECTS(leader != nullptr);
  return run_impl(p, proposal, std::move(leader), status,
                  std::move(on_decide));
}

shm::Prog PaxosConsensus::run_impl(
    Pid p, std::int64_t proposal, LeaderFn leader, Status* status,
    std::function<void(std::int64_t)> on_decide) {

  // Own block (p is its only writer, so the local copy is exact).
  std::int64_t my_mbal = 0;
  std::int64_t my_bal = 0;
  std::int64_t my_val = 0;
  std::int64_t my_has = 0;
  std::int64_t max_seen = 0;  // highest mbal observed anywhere

  auto write_own_block = [&]() {
    return shm::write(blocks_base_ + p,
                      shm::Value::of(my_mbal, my_bal, my_val, my_has));
  };

  for (;;) {
    // Check for a decision every iteration (also the non-leader path's
    // one register operation per loop).
    const shm::Value d = co_await shm::read(decision_);
    if (!d.is_nil()) {
      status->decided = true;
      status->value = d.at(0);
      if (on_decide) on_decide(d.at(0));
      co_return;
    }

    if (leader(p) != p) continue;

    // --- Leader path: one ballot attempt. ---
    // Pick the smallest ballot > max_seen congruent to p (mod n).
    std::int64_t b = (max_seen / n_ + 1) * n_ + p;
    if (b <= max_seen) b += n_;
    SETLIB_ASSERT(b > max_seen && b % n_ == p);
    my_mbal = b;
    max_seen = b;
    ++status->ballots_started;

    // Phase 1: announce the ballot, then collect.
    co_await write_own_block();
    bool aborted = false;
    std::int64_t best_bal = my_has ? my_bal : 0;
    std::int64_t best_val = my_has ? my_val : proposal;
    bool any_val = my_has != 0;
    for (Pid q = 0; q < n_ && !aborted; ++q) {
      if (q == p) continue;
      const shm::Value blk = co_await shm::read(blocks_base_ + q);
      if (blk.is_nil()) continue;
      if (blk.at(kMbal) > b) {
        max_seen = std::max(max_seen, blk.at(kMbal));
        aborted = true;
        break;
      }
      if (blk.at(kHas) != 0 && (!any_val || blk.at(kBal) > best_bal)) {
        any_val = true;
        best_bal = blk.at(kBal);
        best_val = blk.at(kVal);
      }
    }
    if (aborted) continue;

    // Phase 2: write the chosen value at this ballot, then collect.
    my_bal = b;
    my_val = best_val;
    my_has = 1;
    co_await write_own_block();
    for (Pid q = 0; q < n_ && !aborted; ++q) {
      if (q == p) continue;
      const shm::Value blk = co_await shm::read(blocks_base_ + q);
      if (blk.is_nil()) continue;
      if (blk.at(kMbal) > b) {
        max_seen = std::max(max_seen, blk.at(kMbal));
        aborted = true;
      }
    }
    if (aborted) continue;

    // Both phases passed unobstructed: decide.
    co_await shm::write(decision_, shm::Value::of(best_val));
    status->decided = true;
    status->value = best_val;
    if (on_decide) on_decide(best_val);
    co_return;
  }
}

}  // namespace setlib::agreement
