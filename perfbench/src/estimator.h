// The estimators behind every timing metric.
//
// The host this benchmark was tuned on has slow episodes lasting from
// one second to minutes, in which the measured code runs up to ~1.5x
// slower, at more than one level. Whole-run means and percentiles move
// with them; the fast end of repeated measurements of the same work
// does not. So every run repeats one fixed set of ops (the workload's
// "contents", drawn from the seed) in cycles, one cycle per interval:
//
//  - throughput: the fastest interval's throughput (ops / wall time of
//    one cycle). Slow episodes sometimes cover most of a run, so the
//    90th percentile of a run's cycles still moved with them; the best
//    cycle moved about half as much from run to run;
//  - latency: each op's fast end is the fastest of its own latencies
//    over the run; the run reports the nearest-rank p50 and p90 of those
//    per-op values. A per-op fast end needs only one fast moment per op,
//    where a per-interval one needs a whole fast cycle. Over ten 36 s
//    runs each, the fastest latency spread about half as much as the
//    10th percentile did (serving 17% vs 36%, sweep 6% vs 11%), because
//    a slow episode can cover most of a run.
#ifndef PERFBENCH_ESTIMATOR_H
#define PERFBENCH_ESTIMATOR_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending sample set: the
/// ceil(q/100 * n)-th smallest sample (1-based). NaN when empty.
inline double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 100.0);
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Linearly interpolated percentile (the (n-1)p rule of numpy's
/// default), for fast ends over few values, where nearest-rank would
/// snap between them. NaN when empty.
inline double interpolated(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 100.0) / 100.0 *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return interpolated(std::move(values), 50.0);
}

/// A fixed-capacity sample buffer spanning a whole run: when full it
/// drops every other sample and from then on keeps every other offer,
/// so its memory is fixed up front while its samples cover the run
/// evenly, however long it lasts. The smallest offer is kept apart, so
/// min() sees every offer, kept or not.
class SpanSampler {
 public:
  static constexpr std::size_t kCapacity = 256;

  SpanSampler() { samples_.reserve(kCapacity); }

  void add(double value) {
    min_ = std::min(min_, value);
    if (++offered_ % stride_ != 0) return;
    if (samples_.size() == kCapacity) {
      // Keep the samples taken at multiples of the doubled stride.
      std::size_t kept = 0;
      for (std::size_t i = 1; i < samples_.size(); i += 2) {
        samples_[kept++] = samples_[i];
      }
      samples_.resize(kept);
      stride_ *= 2;
      if (offered_ % stride_ != 0) return;
    }
    samples_.push_back(value);
  }

  const std::vector<double>& samples() const noexcept { return samples_; }
  std::int64_t offered() const noexcept { return offered_; }
  /// The smallest value offered; +infinity before the first.
  double min() const noexcept { return min_; }

 private:
  std::vector<double> samples_;
  double min_ = std::numeric_limits<double>::infinity();
  std::int64_t offered_ = 0;
  std::int64_t stride_ = 1;
};

struct Interval {
  double ops = 0.0;     // ops completed in the cycle
  double wall_s = 0.0;  // wall time of the cycle
};

struct FastEnd {
  double throughput_per_s = 0.0;  // the fastest interval
  double p50_s = 0.0;             // p50 of the per-op fast ends
  double p90_s = 0.0;             // p90 of the per-op fast ends
};

/// The fast ends of a run. With `rounds` > 0 the latency unit is a
/// round of ops: op i belongs to round i % rounds, and a round's fast
/// end is the sum of its ops' fast ends.
inline FastEnd fast_end(const std::vector<Interval>& intervals,
                        const std::vector<SpanSampler>& ops,
                        std::size_t rounds = 0) {
  std::vector<double> rate;
  for (const Interval& i : intervals) rate.push_back(i.ops / i.wall_s);
  std::vector<double> per_op;
  if (rounds > 0) per_op.assign(std::min(rounds, ops.size()), 0.0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].offered() == 0) continue;
    if (rounds > 0) {
      per_op[i % rounds] += ops[i].min();
    } else {
      per_op.push_back(ops[i].min());
    }
  }
  std::sort(per_op.begin(), per_op.end());
  FastEnd out;
  out.throughput_per_s = interpolated(rate, 100.0);
  out.p50_s = nearest_rank(per_op, 50.0);
  out.p90_s = nearest_rank(per_op, 90.0);
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_ESTIMATOR_H
