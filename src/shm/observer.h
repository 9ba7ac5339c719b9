// StepObserver: the one seam through which a simulated run is watched.
//
// The paper's model is a stream of steps, each one read or write of a
// shared register; Definition 1 and the Figure 2 proof both reason
// about that stream. shm::Simulator reports it here: on_step once per
// executed step, after the step's register operation, and on_crash
// once per process, when it first crashes. An observer that wants the
// value calls SimMemory::peek(op.reg) inside on_step: a step performs
// exactly one operation, so the register still holds the value that
// was read or written. While an observer is attached the simulator
// pulls one pick at a time, so the observer has seen every step before
// the next pick is pulled (an adaptive adversary reading its
// sched::ObservationFeed relies on this).
//
// Attach with Simulator::publish_observations; the simulator holds one
// observer. Everything an observer sees is a pure function of the run,
// so observation is deterministic at any thread count.
#ifndef SETLIB_SHM_OBSERVER_H
#define SETLIB_SHM_OBSERVER_H

#include <cstdint>

#include "src/shm/memory.h"
#include "src/util/procset.h"

namespace setlib::shm {

/// The register operation one step performed, if any.
struct StepOp {
  enum class Kind : std::uint8_t { kNone, kRead, kWrite };

  /// kNone: a halted process's step, or a purely local task that ended
  /// without a register operation.
  Kind kind = Kind::kNone;
  RegisterId reg = -1;  // the register read or written

  explicit operator bool() const noexcept { return kind != Kind::kNone; }
};

class StepObserver {
 public:
  virtual ~StepObserver() = default;

  /// p executed one step, which performed `op` (kind kNone: nothing).
  virtual void on_step(Pid p, StepOp op) = 0;
  /// p crashed; it takes no further steps.
  virtual void on_crash(Pid p) = 0;
};

}  // namespace setlib::shm

#endif  // SETLIB_SHM_OBSERVER_H
