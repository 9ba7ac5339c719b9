#include "src/fd/leader.h"

#include <sstream>

#include "src/util/assert.h"

namespace setlib::fd {

LeaderView::LeaderView(const KAntiOmega* detector) : detector_(detector) {
  SETLIB_EXPECTS(detector != nullptr);
  SETLIB_EXPECTS(detector->params().k == 1);
}

Pid LeaderView::leader_of(Pid p) const {
  const ProcSet ws = detector_->view(p).winnerset;
  SETLIB_ASSERT(ws.size() == 1);
  return ws.min();
}

bool LeaderView::unanimous(ProcSet who) const {
  SETLIB_EXPECTS(!who.empty());
  const Pid first = leader_of(who.min());
  bool same = true;
  who.for_each([&](Pid p) { same = same && leader_of(p) == first; });
  return same;
}

OmegaCheck check_omega(const KAntiOmega& detector, ProcSet correct,
                       std::int64_t window) {
  SETLIB_EXPECTS(detector.params().k == 1);
  OmegaCheck out;
  const ProcSet trusted = detector.trusted_candidates(correct, window);
  const ProcSet good = trusted & correct;
  out.ok = !good.empty();
  if (out.ok) out.leader = good.min();
  out.unanimous = LeaderView(&detector).unanimous(correct);
  std::ostringstream os;
  os << "omega=" << (out.ok ? "ok" : "FAIL");
  if (out.ok) os << " leader=" << out.leader;
  os << " unanimous=" << (out.unanimous ? "yes" : "no");
  out.detail = os.str();
  return out;
}

Pid anti_omega_output(const KAntiOmega& detector, Pid p) {
  SETLIB_EXPECTS(detector.params().k == detector.params().n - 1);
  const ProcSet output = detector.view(p).fd_output;
  SETLIB_ASSERT(output.size() == 1);
  return output.min();
}

}  // namespace setlib::fd
