#include "src/fd/property.h"

#include <string>

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

  std::string& detail = out.detail;
  detail.reserve(96);
  detail += "sizes=";
  detail += out.output_sizes_ok ? "ok" : "BAD";
  detail += " stabilized=";
  detail += out.stabilized ? "yes" : "no";
  detail += " trusted=";
  detail += out.trusted.to_string();
  detail += " abstract=";
  detail += out.abstract_ok ? "ok" : "FAIL";
  if (out.stabilized) {
    detail += " winnerset=";
    detail += out.winnerset.to_string();
    detail += " correct_winner=";
    detail += out.has_correct_winner ? "yes" : "NO";
  }
  return out;
}

}  // namespace setlib::fd
