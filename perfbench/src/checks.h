// Output checks: what counts as a failed op on each workload.
#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstdint>

#include "src/core/engine.h"
#include "src/core/experiments.h"
#include "src/core/service.h"

namespace perfbench {

/// serve_closed: a request fails if it was shed, or if its slot did not
/// decide its own command. Returns the failed request count.
std::int64_t serve_failures(const setlib::core::ClosedLoopReport& report);

/// sweep_adversaries: a cell fails if it breaks safety (agreement or
/// validity) under any adversary; a friendly cell, which runs in the
/// matching system, also fails if it does not terminate. (A throwing
/// cell is counted by the caller.)
bool cell_failed(setlib::core::ScheduleFamily family,
                 const setlib::core::RunReport& report);

/// census: an enforced-witness census fails unless the enforced pair
/// (range(0, i), range(0, j)) is a member; it is rank 0 in the scan
/// order, so it must be the first member reported. A starver census
/// fails if it reports any member. Either fails if it did not scan
/// every pair.
bool census_failed(const setlib::core::PairScanConfig& config,
                   const setlib::core::PairScanResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H
