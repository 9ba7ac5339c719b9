#include "src/agreement/trivial.h"

#include "src/util/assert.h"

namespace setlib::agreement {

TrivialAgreement::TrivialAgreement(shm::SimMemory& mem, int n, int t)
    : n_(n), t_(t) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
  SETLIB_EXPECTS(t >= 0 && t <= n - 1);
  values_base_ = mem.alloc_array("trivial.V", n);
}

shm::Prog TrivialAgreement::run(Pid p, std::int64_t proposal,
                                Outcome* out) {
  // Eager validation; see KAntiOmega::run for why.
  SETLIB_EXPECTS(p >= 0 && p < n_);
  SETLIB_EXPECTS(out != nullptr);
  return run_impl(p, proposal, out);
}

shm::Prog TrivialAgreement::run_impl(Pid p, std::int64_t proposal,
                                     Outcome* out) {

  co_await shm::write(values_base_ + p, shm::Value::of(proposal));

  for (;;) {
    int seen = 0;
    Pid smallest = -1;
    std::int64_t smallest_value = 0;
    for (Pid q = 0; q < n_; ++q) {
      const shm::Value v = co_await shm::read(values_base_ + q);
      if (v.is_nil()) continue;
      ++seen;
      if (smallest < 0) {  // q ascends, so the first hit is smallest
        smallest = q;
        smallest_value = v.at(0);
      }
    }
    if (seen >= n_ - t_) {
      SETLIB_ASSERT(smallest >= 0);
      out->decided = true;
      out->value = smallest_value;
      out->from = smallest;
      co_return;
    }
  }
}

}  // namespace setlib::agreement
