// Process runtimes: one model process running one or more program tasks.
//
// A deployed process runs several protocol layers at once (the Figure 2
// detector loop plus k agreement instances plus a decision watcher).
// The model has a single automaton per process, so ProcessRuntime
// multiplexes its tasks round-robin: each scheduled step of the process
// executes exactly one pending register operation of the next live task.
// Round-robin multiplexing preserves set timeliness up to the constant
// factor #tasks — the same "bounded steps per loop iteration" argument
// the paper uses in Lemma 9. A step reports the operation it performed
// (kind and register), which the Simulator hands to its StepObserver.
#ifndef SETLIB_SHM_PROCESS_H
#define SETLIB_SHM_PROCESS_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/shm/memory.h"
#include "src/shm/observer.h"
#include "src/shm/program.h"
#include "src/util/procset.h"

namespace setlib::shm {

class ProcessRuntime {
 public:
  explicit ProcessRuntime(Pid pid);

  // Movable (lives in the Simulator's vector), not copyable.
  ProcessRuntime(ProcessRuntime&&) noexcept = default;
  ProcessRuntime& operator=(ProcessRuntime&&) noexcept = default;
  ProcessRuntime(const ProcessRuntime&) = delete;
  ProcessRuntime& operator=(const ProcessRuntime&) = delete;

  Pid pid() const noexcept { return pid_; }

  void add_task(Prog prog, std::string name);
  std::size_t task_count() const noexcept { return tasks_.size(); }

  /// All tasks ran to completion (a halted process; crashes are a
  /// scheduling notion and are handled by the Simulator instead).
  bool halted() const;

  /// Execute one step: one register operation of the next live task (or
  /// nothing if halted). Returns the operation performed; it converts
  /// to false when there was none.
  StepOp step(SimMemory& mem);

  /// Total operations executed by this process.
  std::int64_t ops_executed() const noexcept { return ops_; }

 private:
  static constexpr std::size_t kFirstTasks = 4;

  struct TaskCb {
    Prog prog;
    std::string name;
    bool started = false;
  };

  TaskCb* next_live_task();

  Pid pid_;
  std::vector<TaskCb> tasks_;
  std::size_t rr_cursor_ = 0;
  std::int64_t ops_ = 0;
};

}  // namespace setlib::shm

#endif  // SETLIB_SHM_PROCESS_H
