#include "checks.h"

#include <algorithm>

#include "src/util/procset.h"

namespace perfbench {

namespace core = setlib::core;

std::int64_t serve_failures(const core::ClosedLoopReport& report) {
  const auto& admitted = report.plan.admitted;
  const auto& decided = report.decisions;
  std::int64_t failed = report.plan.shed;
  const std::size_t common = std::min(admitted.size(), decided.size());
  for (std::size_t r = 0; r < common; ++r) {
    if (decided[r].first != admitted[r].id ||
        decided[r].second != admitted[r].command) {
      ++failed;
    }
  }
  // Admitted requests the report never decided.
  failed += static_cast<std::int64_t>(admitted.size() - common);
  return failed;
}

bool cell_failed(core::ScheduleFamily family, const core::RunReport& report) {
  if (!report.agreement_ok || !report.validity_ok) return true;
  return family == core::ScheduleFamily::kEnforcedRandom && !report.terminated;
}

bool census_failed(const core::PairScanConfig& config,
                   const core::PairScanResult& result) {
  const std::int64_t pairs =
      setlib::SubsetRanker(config.n, config.i).count() *
      setlib::SubsetRanker(config.n, config.j).count();
  if (result.pairs != pairs) return true;
  if (config.enforced_bound == 0) return result.found || result.members != 0;
  return !result.found || result.members < 1 ||
         result.first.timely_set != setlib::ProcSet::range(0, config.i) ||
         result.first.observed_set != setlib::ProcSet::range(0, config.j) ||
         result.first.bound > config.bound_cap;
}

}  // namespace perfbench
