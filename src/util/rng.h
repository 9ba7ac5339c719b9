// Deterministic, seedable pseudo-random number generation.
//
// All stochastic schedule generators in the library draw from Rng so that
// every experiment is reproducible from (parameters, seed). The generator
// is xoshiro256**, seeded through SplitMix64 per the reference
// recommendation; both are tiny, fast, and dependency-free.
#ifndef SETLIB_UTIL_RNG_H
#define SETLIB_UTIL_RNG_H

#include <bit>
#include <cstdint>
#include <vector>

#include "src/util/assert.h"

namespace setlib {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
/// Inline: the schedule hash runs it once per executed step.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A bound fixed for many Rng::next_below draws, with both of
/// next_below's divisions paid once here: the rejection threshold, and
/// Lemire's 128-bit fastmod multiplier for r % bound ("Faster Remainder
/// by Direct Computation", 2019). Draws through it equal
/// next_below(bound) bit for bit, rejections included. Power-of-two
/// bounds keep next_below's plain mask.
class FixedBound {
 public:
  /// Requires bound > 0 (throws otherwise).
  explicit FixedBound(std::uint64_t bound);

  std::uint64_t bound() const noexcept { return bound_; }

 private:
  friend class Rng;
  using Wide = unsigned __int128;

  /// r % bound_ for a bound that is not a power of two.
  std::uint64_t reduce(std::uint64_t r) const noexcept {
    const Wide low = magic_ * r;  // the fraction r / bound_, 128 bits
    const Wide bottom =
        (Wide(static_cast<std::uint64_t>(low)) * bound_) >> 64;
    return static_cast<std::uint64_t>(
        ((low >> 64) * bound_ + bottom) >> 64);
  }

  std::uint64_t bound_;
  bool power_of_two_;
  std::uint64_t threshold_ = 0;  // (2^64 - bound) % bound
  Wide magic_ = 0;               // floor((2^128 - 1) / bound) + 1
};

/// xoshiro256** deterministic PRNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit value. Inline: it is the whole per-step cost of
  /// the uniform generators.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). Requires bound > 0 (throws otherwise). Uses
  /// rejection sampling, so the distribution is exactly uniform.
  std::uint64_t next_below(std::uint64_t bound);

  /// Same draw as next_below(bound.bound()), without a division.
  std::uint64_t next_below(const FixedBound& bound) noexcept {
    if (bound.power_of_two_) return next_u64() & (bound.bound_ - 1);
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= bound.threshold_) return bound.reduce(r);
    }
  }

  /// Uniform int in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool next_bool(double p) noexcept;

  /// Pick an index according to non-negative weights (at least one > 0).
  std::size_t next_weighted(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[next_below(i)]);
    }
  }

  /// Derive an independent child generator (for per-process streams).
  Rng fork() noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace setlib

#endif  // SETLIB_UTIL_RNG_H
