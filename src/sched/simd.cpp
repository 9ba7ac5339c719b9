#include "src/sched/simd.h"

namespace setlib::sched::simd {

namespace {

// The one walk body, inlined into each entry so that it compiles under
// that entry's target: walk_word's popcounts become popcnt instructions
// in the popcnt entry.
[[gnu::always_inline]] inline bool walk_words(const std::uint64_t* p,
                                              const std::uint64_t* q,
                                              std::int64_t words,
                                              std::int64_t prune_q,
                                              WalkState* state) {
  for (std::int64_t w = 0; w < words; ++w) {
    walk_word(p[w], q[w], *state);
    if (state->max_q >= prune_q) return true;
  }
  return false;
}

bool portable_window_walk(const std::uint64_t* p, const std::uint64_t* q,
                          std::int64_t words, std::int64_t prune_q,
                          WalkState* state) {
  return walk_words(p, q, words, prune_q, state);
}

constexpr Kernels kPortable{"portable", portable_window_walk};

#if defined(__x86_64__)
// Only dispatched when __builtin_cpu_supports("popcnt") says the host
// has the instruction; the translation unit itself stays portable.
__attribute__((target("popcnt"))) bool popcnt_window_walk(
    const std::uint64_t* p, const std::uint64_t* q, std::int64_t words,
    std::int64_t prune_q, WalkState* state) {
  return walk_words(p, q, words, prune_q, state);
}

constexpr Kernels kPopcnt{"popcnt", popcnt_window_walk};
#endif  // __x86_64__

const Kernels& dispatch() noexcept {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("popcnt")) return kPopcnt;
#endif
  return kPortable;
}

}  // namespace

const Kernels& active_kernels() noexcept {
  static const Kernels& chosen = dispatch();
  return chosen;
}

}  // namespace setlib::sched::simd
