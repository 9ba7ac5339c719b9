#include "src/fd/property.h"

#include <sstream>

#include "src/util/assert.h"

namespace setlib::fd {

PropertyCheck check_kantiomega(const KAntiOmega& detector, ProcSet correct,
                               std::int64_t window) {
  SETLIB_EXPECTS(!correct.empty());
  const auto& params = detector.params();
  PropertyCheck out;

  out.output_sizes_ok = true;
  correct.for_each([&](Pid p) {
    const auto& v = detector.view(p);
    if (v.fd_output.size() != params.n - params.k ||
        v.winnerset.size() != params.k) {
      out.output_sizes_ok = false;
    }
  });

  out.stabilized = detector.stabilized(correct, window);
  if (out.stabilized) {
    out.winnerset = detector.common_winnerset(correct);
    out.has_correct_winner = out.winnerset.intersects(correct);
  }
  out.ok = out.output_sizes_ok && out.stabilized && out.has_correct_winner;

  out.trusted = detector.trusted_candidates(correct, window);
  out.abstract_ok = out.trusted.intersects(correct);

  std::ostringstream os;
  os << "sizes=" << (out.output_sizes_ok ? "ok" : "BAD")
     << " stabilized=" << (out.stabilized ? "yes" : "no") << " trusted="
     << out.trusted << " abstract=" << (out.abstract_ok ? "ok" : "FAIL");
  if (out.stabilized) {
    os << " winnerset=" << out.winnerset
       << " correct_winner=" << (out.has_correct_winner ? "yes" : "NO");
  }
  out.detail = os.str();
  return out;
}

}  // namespace setlib::fd
