#include "src/util/rng.h"

#include <cmath>

namespace setlib {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

FixedBound::FixedBound(std::uint64_t bound)
    : bound_(bound), power_of_two_((bound & (bound - 1)) == 0) {
  SETLIB_EXPECTS(bound > 0);
  if (power_of_two_) return;
  threshold_ = (0 - bound) % bound;
  magic_ = ~Wide{0} / bound + 1;
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  SETLIB_EXPECTS(bound > 0);
  // A power of two divides 2^64, so the rejection threshold below is 0
  // and r % bound is r's low bits: the same draw without two divisions.
  if ((bound & (bound - 1)) == 0) return next_u64() & (bound - 1);
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  SETLIB_EXPECTS(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

std::size_t Rng::next_weighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    SETLIB_EXPECTS(w >= 0.0);
    total += w;
  }
  SETLIB_EXPECTS(total > 0.0);
  double x = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: fall into the last bucket
}

Rng Rng::fork() noexcept { return Rng(next_u64()); }

}  // namespace setlib
