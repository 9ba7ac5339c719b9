// The run engine: one call assembles schedule family + simulator +
// detector + agreement stack, executes, validates, and reports the
// executed schedule's timeliness bound for the witness pair, which the
// simulator streams as the steps run (shm::Simulator::watch).
//
// Two schedule families cover both sides of the Theorem 27 frontier:
//
// - kEnforcedRandom ("friendly"): seeded uniform asynchrony constrained
//   so the designated (P, Q) pair stays timely at the configured bound
//   — the constructive witness that the schedule lies in S^i_{j,n}.
//
// - kRotisserie ("adversarial"): min(j-i, t) processes crash at step 0
//   (the proof of Theorem 27 case 2b's fictitious processes) and the
//   remaining live processes take turns stepping solo in growing
//   bursts (the generalized Figure 1 starver). The schedule is still in
//   S^i_{j,n} — any i live processes are timely w.r.t. themselves plus
//   the crashed set, with bound 1 — but no individual k-subset of the
//   live processes is timely, so exactly the runs the theorem declares
//   solvable can stabilize the detector: accusation[A] freezes iff A
//   has >= t+1 frozen Counter entries = (j-i crashed zeros) + (k own
//   members), i.e. iff j-i >= t+1-k. The solvability frontier is thus
//   *observable* in this single family.
#ifndef SETLIB_CORE_ENGINE_H
#define SETLIB_CORE_ENGINE_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/spec.h"
#include "src/sched/generators.h"
#include "src/util/arena.h"
#include "src/util/procset.h"

namespace setlib::core {

enum class ScheduleFamily {
  kEnforcedRandom,
  kRotisserie,
  /// Rotating k-subset starvation over all live processes (no crashes):
  /// in S^i_{j,n} for every i > k, yet no k-set is timely w.r.t.
  /// anything — the adversary for the i > k side of Theorem 27.
  kKSubsetStarver,
  // Randomized adversary families (src/sched/families.h), seeded per
  // cell. Unlike the constructions above, these make no S^i_{j,n}
  // membership promise: the witness pair is the canonical
  // (range(0,i), range(0,j)) and the measured witness_bound reports
  // what the adversary actually allowed — the frontier bench maps
  // which families keep which (i, j) bounds.
  kBursty,      // long seeded solo runs per process
  kStarvation,  // seeded victim silenced for geometric stretches
  kCrashProne,  // tail processes permanently silenced at seeded steps
  kGst,         // chaotic seeded prefix, then round-robin
  // Execution-reactive adversaries (src/sched/reactive.h): the
  // simulator publishes an ObservationFeed each step and the generator
  // reacts to it. Same canonical witness pair as the randomized
  // families; reactions are a pure function of (observations, seed),
  // so runs stay bit-identical across threads and shards.
  kWindowStretcher,  // feed-scaled silencing epochs, growing stretches
  kDecisionChaser,   // silences whoever is nearest to deciding
  kBudgetCrasher,    // spends the t crash budget at observed worst moments
};

struct RunConfig {
  AgreementSpec spec;
  SystemSpec system;
  ScheduleFamily family = ScheduleFamily::kEnforcedRandom;

  std::uint64_t seed = 1;
  std::int64_t max_steps = 1'500'000;
  std::int64_t timeliness_bound = 3;  // enforced bound (friendly family)
  std::int64_t rotisserie_growth = 512;  // steps added per phase
  /// Burst / starvation-stretch scale of the randomized adversary
  /// families (sched::FamilyParams::scale).
  std::int64_t adversary_scale = 64;
  std::int64_t stabilization_window = 6;  // detector quiescence (iterations)

  /// Extra crashes (friendly family only; the rotisserie derives its own
  /// crash set). Must leave the timely set P alive to keep the schedule
  /// in-system.
  std::optional<sched::CrashPlan> crashes;

  /// Initial values; default proposals[p] = 100 + p.
  std::vector<std::int64_t> proposals;

  /// Per-slot commands. Non-empty selects the multi-shot stack: the
  /// detector leads a MultiShotAgreement log with one slot per command,
  /// and every process proposes slot_commands[s] for slot s, so the
  /// command is the slot's only valid decision. Requires k <= t and no
  /// `proposals`.
  std::vector<std::int64_t> slot_commands;

  /// Run the full step budget even after every correct process decided
  /// (so detector telemetry reflects the long-run behaviour; used by
  /// the Theorem 27 matrix, where early lucky decisions must not
  /// truncate the oscillation evidence).
  bool run_full_budget = false;
};

struct DetectorReport {
  bool used = false;  // false for the trivial (k > t) algorithm
  bool stabilized = false;
  ProcSet winnerset;
  bool winnerset_has_correct = false;
  /// Abstract k-anti-Omega property on this run: processes that every
  /// correct process kept trusting over the trailing window, and
  /// whether a correct one is among them.
  ProcSet trusted;
  bool abstract_ok = false;
  std::int64_t min_iterations = 0;
  std::int64_t max_iterations = 0;
  std::int64_t total_winnerset_changes = 0;
};

struct RunReport {
  // Outcome per the Section 3 properties.
  bool terminated = false;   // all correct processes decided
  bool agreement_ok = false; // <= k distinct decisions
  bool validity_ok = false;
  bool success = false;      // conjunction
  int distinct_decisions = 0;  // multi-shot: the most in any slot
  /// Per process; for multi-shot, per slot (its smallest decided value).
  std::vector<std::optional<std::int64_t>> decisions;

  // Run facts.
  std::int64_t steps_executed = 0;
  ProcSet faulty;
  std::string algorithm;  // "trivial", "kanti-omega+paxos"/"+multishot"

  // Witness cross-check: measured min bound of (P, Q) on the executed
  // schedule (the ground-truth S^i_{j,n} membership evidence), streamed
  // by the simulator step by step.
  ProcSet timely_set;
  ProcSet observed_set;
  std::int64_t witness_bound = 0;

  /// Replay hash of the executed schedule (sched::schedule_hash):
  /// pins the exact execution across reruns, thread counts, and shard
  /// merges. Rendered as a 16-hex-digit string in JSON rows.
  std::uint64_t schedule_hash = 0;

  // Arena allocation account of the run: upstream blocks its cell
  // arena acquired, and their bytes. The run packs nothing and takes
  // no arena scratch (the simulator streams the witness bound and the
  // hash), so both read 0; they stay for readers of the report, such
  // as perfbench's util.arena.allocs_per_op layer.
  std::int64_t allocs_per_op = 0;
  std::int64_t bytes_per_op = 0;

  DetectorReport detector;
  std::string detail;
};

RunReport run_agreement(const RunConfig& config);
/// The same run for callers that hold a cell arena (the runner's
/// per-worker arenas): the run takes nothing from it, so the report is
/// run_agreement(config)'s, allocs_per_op and bytes_per_op 0 included.
RunReport run_agreement(const RunConfig& config, util::ArenaAllocator& arena);

}  // namespace setlib::core

#endif  // SETLIB_CORE_ENGINE_H
