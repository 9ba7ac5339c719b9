#include "src/core/sweep.h"

#include <utility>

#include "src/core/solvability.h"
#include "src/util/assert.h"
#include "src/util/rng.h"

namespace setlib::core {

std::uint64_t derive_cell_seed(std::uint64_t base_seed,
                               std::uint64_t cell_index) noexcept {
  // Advance a splitmix64 stream to the cell's slot: the golden-ratio
  // increment is exactly splitmix64's internal stride, so cells get
  // distinct, well-mixed, index-pure seeds.
  std::uint64_t state =
      base_seed + 0x9E3779B97F4A7C15ull * (cell_index + 1);
  return splitmix64(state);
}

const char* family_name(ScheduleFamily family) noexcept {
  switch (family) {
    case ScheduleFamily::kEnforcedRandom:
      return "friendly";
    case ScheduleFamily::kRotisserie:
      return "rotisserie";
    case ScheduleFamily::kKSubsetStarver:
      return "k-subset starver";
    case ScheduleFamily::kBursty:
      return "bursty";
    case ScheduleFamily::kStarvation:
      return "starvation";
    case ScheduleFamily::kCrashProne:
      return "crash-prone";
    case ScheduleFamily::kGst:
      return "gst";
    case ScheduleFamily::kWindowStretcher:
      return "window-stretcher";
    case ScheduleFamily::kDecisionChaser:
      return "decision-chaser";
    case ScheduleFamily::kBudgetCrasher:
      return "budget-crasher";
  }
  return "unknown";
}

const std::vector<ScheduleFamily>& randomized_families() {
  static const std::vector<ScheduleFamily> families = {
      ScheduleFamily::kBursty,
      ScheduleFamily::kStarvation,
      ScheduleFamily::kCrashProne,
      ScheduleFamily::kGst,
  };
  return families;
}

const std::vector<ScheduleFamily>& reactive_families() {
  static const std::vector<ScheduleFamily> families = {
      ScheduleFamily::kWindowStretcher,
      ScheduleFamily::kDecisionChaser,
      ScheduleFamily::kBudgetCrasher,
  };
  return families;
}

SweepGrid& SweepGrid::add_spec(const AgreementSpec& spec) {
  spec.validate();
  specs_.push_back(spec);
  points_valid_ = false;
  return *this;
}

SweepGrid& SweepGrid::add_family(ScheduleFamily family) {
  families_.push_back(family);
  return *this;
}

SweepGrid& SweepGrid::add_bound(std::int64_t timeliness_bound) {
  SETLIB_EXPECTS(timeliness_bound >= 1);
  bounds_.push_back(timeliness_bound);
  return *this;
}

SweepGrid& SweepGrid::system_axis(SystemAxis axis) {
  axis_ = axis;
  points_valid_ = false;
  return *this;
}

SweepGrid& SweepGrid::repeats(int repeats) {
  SETLIB_EXPECTS(repeats >= 1);
  repeats_ = repeats;
  return *this;
}

SweepGrid& SweepGrid::base_seed(std::uint64_t seed) {
  base_seed_ = seed;
  return *this;
}

SweepGrid& SweepGrid::prototype(const RunConfig& config) {
  prototype_ = config;
  return *this;
}

SweepGrid& SweepGrid::per_cell(std::function<void(SweepCell&)> hook) {
  per_cell_ = std::move(hook);
  return *this;
}

const std::vector<SweepGrid::Point>& SweepGrid::points() const {
  // Memoized: recomputing the axis product per cell() call is
  // quadratic on full-matrix grids and dominates on 10^5-cell grids.
  if (!points_valid_) {
    points_cache_.clear();
    for (const AgreementSpec& spec : specs_) {
      switch (axis_) {
        case SystemAxis::kMatching:
          points_cache_.push_back({spec, matching_system(spec)});
          break;
        case SystemAxis::kFullMatrix:
          for (int i = 1; i <= spec.n; ++i) {
            for (int j = i; j <= spec.n; ++j) {
              points_cache_.push_back({spec, SystemSpec{i, j, spec.n}});
            }
          }
          break;
      }
    }
    points_valid_ = true;
  }
  return points_cache_;
}

std::size_t SweepGrid::size() const {
  const std::size_t families = families_.empty() ? 1 : families_.size();
  const std::size_t bounds = bounds_.empty() ? 1 : bounds_.size();
  return points().size() * families * bounds *
         static_cast<std::size_t>(repeats_);
}

SweepCell SweepGrid::cell(std::size_t index) const {
  const std::vector<Point>& pts = points();
  const std::size_t families = families_.empty() ? 1 : families_.size();
  const std::size_t bounds = bounds_.empty() ? 1 : bounds_.size();
  const std::size_t repeats = static_cast<std::size_t>(repeats_);
  SETLIB_EXPECTS(index < pts.size() * families * bounds * repeats);

  std::size_t rest = index;
  const std::size_t repeat = rest % repeats;
  rest /= repeats;
  const std::size_t bound = rest % bounds;
  rest /= bounds;
  const std::size_t family = rest % families;
  rest /= families;
  const Point& point = pts[rest];

  SweepCell cell;
  cell.index = index;
  cell.repeat = static_cast<int>(repeat);
  cell.config = prototype_;
  cell.config.spec = point.spec;
  cell.config.system = point.system;
  if (!families_.empty()) cell.config.family = families_[family];
  if (!bounds_.empty()) cell.config.timeliness_bound = bounds_[bound];
  cell.config.seed = derive_cell_seed(base_seed_, index);
  if (per_cell_) per_cell_(cell);
  return cell;
}

}  // namespace setlib::core
