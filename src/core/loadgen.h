// Seeded load generation for the serving harness.
//
// LoadGen turns (request count, seed, mean inter-arrival gap) into the
// deterministic request stream the serving harness consumes: request
// r's command payload and virtual arrival tick are pure functions of
// (config, r), so every shard and every thread count sees exactly the
// same traffic — the serving-side analogue of the sweep engine's
// index-derived cell seeds.
#ifndef SETLIB_CORE_LOADGEN_H
#define SETLIB_CORE_LOADGEN_H

#include <cstdint>
#include <vector>

namespace setlib::core {

/// One client request: a command to be appended to the replicated
/// agreement log. `arrival_tick` is virtual time.
struct Request {
  std::int64_t id = 0;
  std::int64_t command = 0;
  std::int64_t arrival_tick = 0;
};

struct LoadGenConfig {
  std::int64_t requests = 0;  // stream length
  std::uint64_t seed = 1;
  /// Mean virtual-tick gap between consecutive arrivals; gaps are
  /// drawn uniformly from [0, 2 * mean], so 0 allows back-to-back
  /// (same-tick) arrivals — the case batching exists for.
  std::int64_t mean_interarrival_ticks = 8;
};

/// Deterministic request stream generator.
class LoadGen {
 public:
  explicit LoadGen(LoadGenConfig config);

  const LoadGenConfig& config() const noexcept { return config_; }

  /// Command payload of request `id` — a stateless splitmix64 hash of
  /// (seed, id), so it needs no generator state. Always in [0, 2^31).
  std::int64_t command(std::int64_t id) const noexcept;

  /// The full arrival stream: `requests` entries with ids
  /// 0..requests-1 and nondecreasing arrival ticks starting at the
  /// first drawn gap.
  std::vector<Request> arrivals() const;

 private:
  LoadGenConfig config_;
};

}  // namespace setlib::core

#endif  // SETLIB_CORE_LOADGEN_H
