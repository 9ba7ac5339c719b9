#include "src/agreement/kset.h"

#include <algorithm>
#include <string>

#include "src/util/assert.h"

namespace setlib::agreement {

KSetAgreement::KSetAgreement(shm::SimMemory& mem, Params params,
                             const fd::KAntiOmega* detector)
    : params_(params), detector_(detector) {
  SETLIB_EXPECTS(params.n >= 2 && params.n <= kMaxProcs);
  SETLIB_EXPECTS(params.k >= 1 && params.k <= params.n - 1);
  SETLIB_EXPECTS(params.t >= 1 && params.t <= params.n - 1);
  SETLIB_EXPECTS(detector != nullptr);
  SETLIB_EXPECTS(detector->params().n == params.n);
  SETLIB_EXPECTS(detector->params().k == params.k);
  instances_.reserve(static_cast<std::size_t>(params.k));
  for (int m = 0; m < params.k; ++m) {
    instances_.emplace_back(mem, params.n, shm::RegisterName("kset.inst", m));
  }
  statuses_.resize(static_cast<std::size_t>(params.k) *
                   static_cast<std::size_t>(params.n));
  outcomes_.assign(static_cast<std::size_t>(params.n), Outcome{});
}

void KSetAgreement::install(shm::ProcessRuntime& proc, Pid p,
                            std::int64_t proposal) {
  SETLIB_EXPECTS(p >= 0 && p < params_.n);
  SETLIB_EXPECTS(proc.pid() == p);
  for (int m = 0; m < params_.k; ++m) {
    auto* status = &statuses_[static_cast<std::size_t>(m) *
                                  static_cast<std::size_t>(params_.n) +
                              static_cast<std::size_t>(p)];
    // Instance m trusts the m-th smallest member of the local winnerset
    // (the winnerset always has exactly k members, Figure 2 line 4).
    auto leader = [this, m](Pid self) -> Pid {
      const ProcSet ws = detector_->view(self).winnerset;
      SETLIB_ASSERT(ws.size() == params_.k);
      return ws.nth(m);
    };
    auto on_decide = [this, m, p](std::int64_t value) {
      Outcome& o = outcomes_[static_cast<std::size_t>(p)];
      if (!o.decided) {
        o.decided = true;
        o.value = value;
        o.via_instance = m;
      }
    };
    proc.add_task(
        instances_[static_cast<std::size_t>(m)].run(p, proposal, leader,
                                                    status, on_decide),
        "kset.inst" + std::to_string(m));
  }
}

const KSetAgreement::Outcome& KSetAgreement::outcome(Pid p) const {
  SETLIB_EXPECTS(p >= 0 && p < params_.n);
  return outcomes_[static_cast<std::size_t>(p)];
}

bool KSetAgreement::all_decided(ProcSet who) const {
  bool all = true;
  who.for_each([&](Pid p) { all = all && decided(p); });
  return all;
}

std::vector<std::int64_t> KSetAgreement::distinct_decisions(
    ProcSet who) const {
  std::vector<std::int64_t> vals;
  who.for_each([&](Pid p) {
    if (decided(p)) vals.push_back(outcome(p).value);
  });
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  return vals;
}

const PaxosConsensus& KSetAgreement::instance(int m) const {
  SETLIB_EXPECTS(m >= 0 && m < params_.k);
  return instances_[static_cast<std::size_t>(m)];
}

}  // namespace setlib::agreement
