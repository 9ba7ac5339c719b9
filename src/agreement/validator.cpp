#include "src/agreement/validator.h"

#include <algorithm>
#include <string>

#include "src/util/assert.h"

namespace setlib::agreement {

AgreementVerdict validate_agreement(
    int t, int k, int n, const std::vector<std::int64_t>& proposals,
    const std::vector<std::optional<std::int64_t>>& decisions,
    ProcSet faulty) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
  SETLIB_EXPECTS(t >= 0 && t <= n - 1);
  SETLIB_EXPECTS(k >= 1);
  SETLIB_EXPECTS(proposals.size() == static_cast<std::size_t>(n));
  SETLIB_EXPECTS(decisions.size() == static_cast<std::size_t>(n));

  AgreementVerdict out;

  std::vector<std::int64_t> decided_values;
  decided_values.reserve(static_cast<std::size_t>(n));
  for (Pid p = 0; p < n; ++p) {
    if (decisions[static_cast<std::size_t>(p)].has_value()) {
      decided_values.push_back(*decisions[static_cast<std::size_t>(p)]);
    }
  }
  std::sort(decided_values.begin(), decided_values.end());
  decided_values.erase(
      std::unique(decided_values.begin(), decided_values.end()),
      decided_values.end());
  out.distinct_values = static_cast<int>(decided_values.size());
  out.agreement_ok = out.distinct_values <= k;

  out.validity_ok = true;
  for (std::int64_t v : decided_values) {
    if (std::find(proposals.begin(), proposals.end(), v) == proposals.end()) {
      out.validity_ok = false;
    }
  }

  out.termination_ok = true;
  if (faulty.size() <= t) {
    faulty.complement(n).for_each([&](Pid p) {
      if (!decisions[static_cast<std::size_t>(p)].has_value()) {
        out.termination_ok = false;
      }
    });
  }

  out.ok = out.agreement_ok && out.validity_ok && out.termination_ok;

  std::string& detail = out.detail;
  detail.reserve(80);
  detail += "distinct=";
  detail += std::to_string(out.distinct_values);
  detail += '/';
  detail += std::to_string(k);
  detail += " agreement=";
  detail += out.agreement_ok ? "ok" : "VIOLATED";
  detail += " validity=";
  detail += out.validity_ok ? "ok" : "VIOLATED";
  detail += " termination=";
  detail += faulty.size() > t ? "vacuous"
                              : (out.termination_ok ? "ok" : "incomplete");
  return out;
}

}  // namespace setlib::agreement
