// Wait-free atomic snapshot from single-writer registers (Afek,
// Attiya, Dolev, Gafni, Merritt, Shavit 1993, embedded-scan variant).
//
// One segment register per process holds {seq, value, embedded view}.
// scan(): repeat double collects; a clean double collect (no seq
// changed) is an atomic snapshot; otherwise, a process observed moving
// TWICE has completed a whole update() inside the scan, and its
// embedded view (the snapshot its update took) is a valid snapshot
// within the scan's interval — borrow it. At most n+1 double collects,
// so both operations are wait-free.
//
// update(p, v): take an embedded scan, then write {seq+1, v, scan}.
//
// The model's registers hold arbitrary tuples, so a segment (size
// O(n)) is one atomic register. Values are int64 (the common case for
// the protocols in this library); the initial value of every segment
// is configurable.
//
// Threading model: this class holds no locks — its atomicity argument
// is the protocol above, executed as register steps on the SimMemory,
// which the Simulator serializes on one thread.
#ifndef SETLIB_SHM_SNAPSHOT_H
#define SETLIB_SHM_SNAPSHOT_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/shm/memory.h"
#include "src/shm/program.h"
#include "src/util/procset.h"

namespace setlib::shm {

class AtomicSnapshot {
 public:
  AtomicSnapshot(SimMemory& mem, int n, const std::string& name,
                 std::int64_t initial = 0);

  /// One-shot scan task: deposits an atomic snapshot (n values) in
  /// *out. Also a child of another program: `co_await snap.scan(p, &v);`.
  Prog scan(Pid p, std::vector<std::int64_t>* out);

  /// Update p's component to v (includes the embedded scan).
  Prog update(Pid p, std::int64_t v);

  int n() const noexcept { return n_; }
  RegisterId segment_reg(Pid q) const;

 private:
  Prog scan_impl(Pid p, std::vector<std::int64_t>* out);
  Prog update_impl(Pid p, std::int64_t v);

  // Segment layout: [seq, value, view_0, ..., view_{n-1}].
  std::int64_t seq_of(const Value& segment) const;
  std::int64_t value_of(const Value& segment) const;
  std::vector<std::int64_t> view_of(const Value& segment) const;

  int n_;
  std::int64_t initial_;
  RegisterId segments_base_;
};

}  // namespace setlib::shm

#endif  // SETLIB_SHM_SNAPSHOT_H
