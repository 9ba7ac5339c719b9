#include "src/shm/snapshot.h"

#include "src/util/assert.h"

namespace setlib::shm {

AtomicSnapshot::AtomicSnapshot(SimMemory& mem, int n, const std::string& name,
                               std::int64_t initial)
    : n_(n), initial_(initial) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
  segments_base_ = mem.alloc_array(name + ".seg", n);
}

RegisterId AtomicSnapshot::segment_reg(Pid q) const {
  SETLIB_EXPECTS(q >= 0 && q < n_);
  return segments_base_ + q;
}

std::int64_t AtomicSnapshot::seq_of(const Value& segment) const {
  return segment.at_or(0, 0);
}

std::int64_t AtomicSnapshot::value_of(const Value& segment) const {
  return segment.at_or(1, initial_);
}

std::vector<std::int64_t> AtomicSnapshot::view_of(
    const Value& segment) const {
  std::vector<std::int64_t> view(static_cast<std::size_t>(n_), initial_);
  for (int q = 0; q < n_; ++q) {
    view[static_cast<std::size_t>(q)] =
        segment.at_or(static_cast<std::size_t>(2 + q), initial_);
  }
  return view;
}

Prog AtomicSnapshot::scan(Pid p, std::vector<std::int64_t>* out) {
  // Eager validation; see KAntiOmega::run for why.
  SETLIB_EXPECTS(p >= 0 && p < n_);
  SETLIB_EXPECTS(out != nullptr);
  return scan_impl(p, out);
}

Prog AtomicSnapshot::scan_impl(Pid /*p*/, std::vector<std::int64_t>* out) {

  std::vector<Value> first(static_cast<std::size_t>(n_));
  std::vector<Value> second(static_cast<std::size_t>(n_));
  std::vector<int> moved(static_cast<std::size_t>(n_), 0);

  for (Pid q = 0; q < n_; ++q) {
    first[static_cast<std::size_t>(q)] =
        co_await read(segments_base_ + q);
  }
  for (;;) {
    for (Pid q = 0; q < n_; ++q) {
      second[static_cast<std::size_t>(q)] =
          co_await read(segments_base_ + q);
    }
    bool clean = true;
    for (Pid q = 0; q < n_; ++q) {
      const auto s1 = seq_of(first[static_cast<std::size_t>(q)]);
      const auto s2 = seq_of(second[static_cast<std::size_t>(q)]);
      if (s1 != s2) {
        clean = false;
        if (moved[static_cast<std::size_t>(q)] != 0) {
          // q completed a full update inside our scan: its embedded
          // view is an atomic snapshot within our interval.
          *out = view_of(second[static_cast<std::size_t>(q)]);
          co_return;
        }
        moved[static_cast<std::size_t>(q)] = 1;
      }
    }
    if (clean) {
      out->assign(static_cast<std::size_t>(n_), initial_);
      for (Pid q = 0; q < n_; ++q) {
        (*out)[static_cast<std::size_t>(q)] =
            value_of(second[static_cast<std::size_t>(q)]);
      }
      co_return;
    }
    first.swap(second);
  }
}

Prog AtomicSnapshot::update(Pid p, std::int64_t v) {
  // Eager validation; see KAntiOmega::run for why.
  SETLIB_EXPECTS(p >= 0 && p < n_);
  return update_impl(p, v);
}

Prog AtomicSnapshot::update_impl(Pid p, std::int64_t v) {

  // Embedded scan (a child program: its reads are our steps 1:1).
  std::vector<std::int64_t> view;
  co_await scan(p, &view);

  // Read own segment for the sequence number (p is its only writer, so
  // this is exact; a local cache would also do).
  const Value own = co_await read(segments_base_ + p);
  std::vector<std::int64_t> words;
  words.reserve(static_cast<std::size_t>(2 + n_));
  words.push_back(seq_of(own) + 1);
  words.push_back(v);
  for (int q = 0; q < n_; ++q) {
    words.push_back(view[static_cast<std::size_t>(q)]);
  }
  co_await write(segments_base_ + p, Value(std::move(words)));
}

}  // namespace setlib::shm
