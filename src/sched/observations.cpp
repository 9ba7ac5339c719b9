#include "src/sched/observations.h"

#include <algorithm>

namespace setlib::sched {

ObservationFeed::ObservationFeed(int n) : n_(n) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
  last_.fill(-1);
  progress_.fill(-1);
}

std::int64_t ObservationFeed::max_silence() const {
  // p's silence is total_ - 1 - last_[p] (a never-stepped p has
  // last_ -1, so its silence is total_), and the longest silence
  // belongs to the least recent last step.
  return total_ - 1 - *std::min_element(last_.begin(), last_.begin() + n_);
}

void ObservationFeed::record_crash(Pid p) {
  SETLIB_EXPECTS(p >= 0 && p < n_);
  crashed_ = crashed_.with(p);
}

void ObservationFeed::publish_progress(Pid p, std::int64_t progress) {
  SETLIB_EXPECTS(p >= 0 && p < n_);
  SETLIB_EXPECTS(progress >= 0);
  progress_[static_cast<std::size_t>(p)] = progress;
}

void ObservationFeed::publish_decided(Pid p) {
  SETLIB_EXPECTS(p >= 0 && p < n_);
  decided_ = decided_.with(p);
}

}  // namespace setlib::sched
