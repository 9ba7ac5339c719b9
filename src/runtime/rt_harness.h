// High-level threaded harness: the full Theorem 24 stack (Figure 2
// detector + k Paxos instances) on real threads, mirroring
// core::run_agreement for the real-time runtime.
#ifndef SETLIB_RUNTIME_RT_HARNESS_H
#define SETLIB_RUNTIME_RT_HARNESS_H

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/sched/schedule.h"
#include "src/shm/memory.h"
#include "src/util/procset.h"

namespace setlib::runtime {

struct RtRunConfig {
  int n = 4;
  int k = 1;
  int t = 1;

  /// Pacer constraint: first k pids timely w.r.t. first t+1 pids.
  std::int64_t bound = 4;

  /// Crash the last crash_count pids after each has executed crash_ops
  /// operations (0 = crash immediately). Crashes are deterministic:
  /// the executor never ends a run while one is still pending.
  int crash_count = 0;
  std::int64_t crash_ops = 0;

  /// Explicit (pid, after-ops) crash injections; when non-empty this
  /// overrides crash_count/crash_ops and may crash any pid — including
  /// pacer timely-set members, which drops the constraint mid-run (see
  /// RtRunReport::pacer_steps for how the stats respond).
  std::vector<std::pair<Pid, std::int64_t>> crashes;

  std::int64_t max_ops_per_process = 500'000;
  std::chrono::milliseconds max_wall{5000};
  std::vector<std::int64_t> proposals;  // default 100 + p
};

struct RtRunReport {
  bool all_done = false;
  bool success = false;  // agreement + validity + termination
  int distinct_decisions = 0;
  std::vector<std::optional<std::int64_t>> decisions;
  ProcSet faulty;

  /// Paced steps: the serialized step count of the era in which every
  /// constraint was still enforced. When a crash kills a constraint's
  /// whole timely set (possibly before the crashed thread ever reached
  /// the pacer), later steps run unpaced, so pacer_steps — and the
  /// witness_bound measured below — cover only the pre-crash prefix
  /// instead of passing off an unpaced run as a paced one.
  std::int64_t pacer_steps = 0;
  std::int64_t dropped_constraints = 0;
  std::int64_t witness_bound = 0;  // measured on the paced prefix
  std::chrono::milliseconds elapsed{0};
  bool detector_stabilized = false;
  bool detector_abstract_ok = false;
  std::string detail;

  /// Every step in the order it ran, the unpaced tail included: the
  /// linearization of the run's register operations. Replaying it
  /// through shm::Simulator from the same proposals reproduces
  /// `memory`, `detector_iterations` and `decisions`. (Empty until a
  /// run fills it.)
  sched::Schedule schedule{1};
  shm::SimMemory memory;  // the registers as the run left them
  std::vector<std::int64_t> detector_iterations;  // per process
};

RtRunReport run_kset_threaded(const RtRunConfig& cfg);

}  // namespace setlib::runtime

#endif  // SETLIB_RUNTIME_RT_HARNESS_H
