// The window walk of the word-packed timeliness analysis, the pair
// scan's hot loop: the P-free-window popcount walk with a prune abort.
//
// One integer body, compiled twice: a target("popcnt") entry, chosen
// on x86-64 when __builtin_cpu_supports("popcnt") says the host has
// the instruction, and a portable entry everywhere else (on aarch64
// std::popcount is already inline). Without the target attribute an
// x86-64 build lowers std::popcount to a libgcc __popcountdi2 call,
// which cost the census about 1.3x in latency; hand-written AVX2 and
// NEON walks bought nothing beyond the popcnt instruction
// (docs/MEMORY.md). Both entries run the same source on 64-bit
// integers, so every bound, count and member is bit-identical between
// them.
//
// Prune contract: window_walk returns true as soon as state->max_q
// reaches prune_q, checked after every word; a pruned return means
// "bound exceeds cap" and callers discard the state (RankedPairScan
// does). A completed walk (false) has run every word. max_q is
// monotone, so the split of a timeline into calls is irrelevant:
// RankedPairScan walks one pair in growing chunks (1, 2, 4, ... 64
// words), carrying the state from call to call, and a pair prunes in
// some chunk iff its whole-timeline max_q reaches prune_q, so counts
// and members match a single whole-length walk, also when a count-mode
// horizon cuts a chunk short and RankedPairScan::finish resumes the
// walk from the carried state later. The scan builds both
// sides of a chunk just before walking it (P's words only the first
// time any of its observers reaches them), so a pair pruned in chunk c
// has read, and caused to be built, nothing past c.
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
/// span by the mask arithmetic. Shared by window_walk and by
/// PackedSchedule::bound_for.
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

/// The dispatched window walk.
struct Kernels {
  const char* name;  // "popcnt" or "portable"
  /// Walks words [0, words) of (p, q); returns true when the walk
  /// aborted because state->max_q reached prune_q (see the prune
  /// contract above). prune_q == INT64_MAX never aborts.
  bool (*window_walk)(const std::uint64_t* p, const std::uint64_t* q,
                      std::int64_t words, std::int64_t prune_q,
                      WalkState* state);
};

/// The walk scans run on, chosen for the host once.
const Kernels& active_kernels() noexcept;

}  // namespace setlib::sched::simd

#endif  // SETLIB_SCHED_SIMD_H
