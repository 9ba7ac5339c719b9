// Schedule generator interface.
//
// A generator models an infinite schedule: each next() call yields the
// pid of the next step. Deterministic generators (round-robin, Figure 1)
// reproduce the paper's constructions exactly; stochastic ones are
// seeded. The generators in generators.h and families.h are oblivious
// (pure functions of params and seed), while the ReactiveGenerators in
// reactive.h consume the ObservationFeed (observations.h), the step
// observer the simulator reports each step to.
//
// Consumers pull through fill(): one virtual call per block, and the
// oblivious generators override it with a loop the compiler can see
// through. fill() never changes the stream, only the cost of reading
// it. The Simulator pulls blocks of at most 64 picks that end where its
// next check falls, and one pick at a time when a step observer (such
// as an ObservationFeed) is attached, so a reactive adversary sees
// every step before its next pick. Bulk consumers (generate(), PackedSchedule's generator
// constructor) fill whole buffers.
#ifndef SETLIB_SCHED_GENERATOR_H
#define SETLIB_SCHED_GENERATOR_H

#include <memory>
#include <span>

#include "src/sched/schedule.h"
#include "src/util/procset.h"

namespace setlib::sched {

class ScheduleGenerator {
 public:
  virtual ~ScheduleGenerator() = default;

  /// Number of processes in the system the schedule ranges over.
  virtual int n() const = 0;

  /// The pid taking the next step.
  virtual Pid next() = 0;

  /// Writes the next out.size() steps into `out`, in order. Contract:
  /// fill() and next() read one stream — any interleaving of fill()
  /// blocks (of any size, including 0) and next() calls yields the
  /// same pids, and leaves the generator in the same state, as that
  /// many next() calls. The default loops next().
  virtual void fill(std::span<Pid> out) {
    for (Pid& p : out) p = next();
  }
};

/// Materialize the next `steps` steps of `gen` as a Schedule (one
/// fill() into a pre-sized step vector).
Schedule generate(ScheduleGenerator& gen, std::int64_t steps);

}  // namespace setlib::sched

#endif  // SETLIB_SCHED_GENERATOR_H
