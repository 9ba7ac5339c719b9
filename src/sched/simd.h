// SIMD kernels for the word-packed timeliness analysis.
//
// Two kernels cover the pair-scan hot loop: or_into (multi-word OR,
// the Q-column accumulation) and window_walk (the fused P-free-window
// popcount walk with prune abort). Three implementations share one
// table layout: AVX2 (x86-64, runtime-detected), NEON (aarch64
// baseline), and a portable scalar fallback. All of them compute on
// 64-bit integers only, so they are bit-identical by construction —
// the vector paths merely batch the all-P-bits-zero fast case that
// dominates real schedules (a window boundary appears once per ~bound
// Q-steps, so most words of most columns are P-free).
//
// Dispatch: active_kernels() picks the best table for the host once
// (AVX2 when __builtin_cpu_supports says so, NEON on aarch64, scalar
// otherwise). Setting SETLIB_FORCE_SCALAR in the environment pins the
// scalar table — the differential CI job runs the whole suite under
// it and diffs against the vector run. set_kernels_for_testing()
// overrides the choice programmatically for in-process differential
// tests and the scalar-baseline benches.
//
// Prune contract: window_walk returns true as soon as state->max_q
// reaches prune_q. Implementations may check at chunk granularity, so
// a pruned return's state is unspecified beyond max_q >= prune_q —
// callers must treat pruned walks as "bound exceeds cap" and discard
// the state (RankedPairScan does). Completed walks (false) leave
// identical state in every implementation: max_q is monotone, so a
// walk that never reaches prune_q runs every word in all of them.
// The same monotonicity makes the split of a timeline into calls
// irrelevant: RankedPairScan walks one pair in growing chunks (1, 2,
// 4, ... 64 words), carrying the state from call to call, and a pair
// prunes in some chunk iff its whole-timeline max_q reaches prune_q,
// so counts, members and witnesses match a single whole-length walk.
#ifndef SETLIB_SCHED_SIMD_H
#define SETLIB_SCHED_SIMD_H

#include <bit>
#include <cstdint>

#include "src/util/procset.h"

namespace setlib::sched::simd {

/// Window-walk accumulator: Q-steps since the last P-step, and the
/// largest P-free-window Q-count seen. Same arithmetic as
/// BoundTracker; bound = max_q + 1.
struct WalkState {
  std::int64_t current = 0;
  std::int64_t max_q = 0;
};

/// One packed word of the walk (pw: P-bits, qw: Q-bits). A step in
/// both P and Q is a window boundary (the P-reset wins, matching the
/// reference scan): boundary positions are excluded from every counted
/// span by the mask arithmetic. Shared by every kernel implementation
/// and by the analyzer's on-the-fly packer.
inline void walk_word(std::uint64_t pw, std::uint64_t qw,
                      WalkState& state) noexcept {
  if (pw == 0) {
    state.current += std::popcount(qw);
    if (state.current > state.max_q) state.max_q = state.current;
    return;
  }
  int prev = 0;
  do {
    const int b = std::countr_zero(pw);
    state.current += std::popcount(qw & word_range_mask(prev, b));
    if (state.current > state.max_q) state.max_q = state.current;
    state.current = 0;
    prev = b + 1;
    pw &= pw - 1;
  } while (pw != 0);
  state.current = std::popcount(qw & ~low_word_mask(prev));
  if (state.current > state.max_q) state.max_q = state.current;
}

/// A dispatchable kernel table.
struct Kernels {
  const char* name;  // "avx2", "neon", "scalar"
  /// out[w] |= src[w] for w in [0, words).
  void (*or_into)(std::uint64_t* out, const std::uint64_t* src,
                  std::int64_t words);
  /// Walks words [0, words) of (p, q); returns true when the walk
  /// aborted because state->max_q reached prune_q (see the prune
  /// contract above). prune_q == INT64_MAX never aborts.
  bool (*window_walk)(const std::uint64_t* p, const std::uint64_t* q,
                      std::int64_t words, std::int64_t prune_q,
                      WalkState* state);
};

/// The portable table — also the forced-scalar differential baseline.
const Kernels& scalar_kernels() noexcept;

/// The table scans run on: best-for-host, scalar when
/// SETLIB_FORCE_SCALAR is set in the environment (checked once), or
/// whatever set_kernels_for_testing installed.
const Kernels& active_kernels() noexcept;

/// Installs `k` as the active table (nullptr restores the dispatched
/// default). For differential tests and scalar-baseline benches; not
/// for concurrent use with running scans.
void set_kernels_for_testing(const Kernels* k) noexcept;

}  // namespace setlib::sched::simd

#endif  // SETLIB_SCHED_SIMD_H
