#include "src/shm/process.h"

#include "src/util/assert.h"

namespace setlib::shm {

ProcessRuntime::ProcessRuntime(Pid pid) : pid_(pid) {
  SETLIB_EXPECTS(pid >= 0 && pid < kMaxProcs);
}

void ProcessRuntime::add_task(Prog prog, std::string name) {
  SETLIB_EXPECTS(prog.valid());
  tasks_.push_back(TaskCb{std::move(prog), std::move(name)});
}

bool ProcessRuntime::halted() const {
  for (const auto& t : tasks_) {
    if (!t.started || !t.prog.done()) return false;
  }
  return true;
}

ProcessRuntime::TaskCb* ProcessRuntime::next_live_task() {
  const std::size_t count = tasks_.size();
  SETLIB_ASSERT(rr_cursor_ < count);
  std::size_t next = rr_cursor_;
  for (std::size_t i = 0; i < count; ++i) {
    TaskCb& t = tasks_[next];
    if (++next == count) next = 0;
    if (!t.started || !t.prog.done()) {
      rr_cursor_ = next;
      return &t;
    }
  }
  return nullptr;
}

bool ProcessRuntime::step(IMemory& mem) {
  TaskCb* t = tasks_.empty() ? nullptr : next_live_task();
  if (t == nullptr) return false;  // halted process: a scheduled no-op step

  if (!t->started) {
    t->started = true;
    t->prog.resume();  // run to the first operation request (or completion)
    if (t->prog.done()) return false;  // purely local task
  }

  Op& op = t->prog.pending();
  if (op.kind == Op::Kind::kRead) {
    op.value = mem.read(op.reg);
  } else {
    mem.write(op.reg, std::move(op.value));
  }
  ++ops_;
  t->prog.resume();  // one resume: the leaf runs to its next op
  return true;
}

}  // namespace setlib::shm
