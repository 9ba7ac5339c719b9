#include "src/sched/analyzer.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <optional>
#include <span>

#include "src/sched/simd.h"
#include "src/util/assert.h"

namespace setlib::sched {

namespace {

// The per-word window walk (P-bits delimit windows, Q-bits count
// inside them) lives in src/sched/simd.h as walk_word/WalkState so the
// vector kernels and this on-the-fly packer share one definition.

// Packs steps [from, to) of `steps` into (P, Q) words on the fly and
// feeds them to the window walk, continuing whatever state `scan`
// carries. Branch-free packing: each step contributes one mask-test
// bit per side.
void scan_step_range(const std::vector<Pid>& steps, std::uint64_t pmask,
                     std::uint64_t qmask, std::int64_t from,
                     std::int64_t to, simd::WalkState& scan) {
  std::int64_t idx = from;
  while (idx < to) {
    const std::int64_t block_end = std::min(to, idx + kBitsPerWord);
    std::uint64_t pw = 0;
    std::uint64_t qw = 0;
    for (std::int64_t t = idx; t < block_end; ++t) {
      const int pid = steps[static_cast<std::size_t>(t)];
      const std::uint64_t bit = std::uint64_t{1} << (t - idx);
      pw |= ((pmask >> pid) & 1u) * bit;
      qw |= ((qmask >> pid) & 1u) * bit;
    }
    simd::walk_word(pw, qw, scan);
    idx = block_end;
  }
}

}  // namespace

std::int64_t min_timeliness_bound(const Schedule& s, ProcSet p, ProcSet q,
                                  std::int64_t from, std::int64_t to) {
  SETLIB_EXPECTS(0 <= from && from <= to && to <= s.size());
  simd::WalkState scan;
  scan_step_range(s.steps(), p.mask(), q.mask(), from, to, scan);
  return scan.max_q + 1;
}

std::int64_t min_timeliness_bound(const Schedule& s, ProcSet p, ProcSet q) {
  return min_timeliness_bound(s, p, q, 0, s.size());
}

std::int64_t min_timeliness_bound_reference(const Schedule& s, ProcSet p,
                                            ProcSet q, std::int64_t from,
                                            std::int64_t to) {
  SETLIB_EXPECTS(0 <= from && from <= to && to <= s.size());
  // Scan windows delimited by P-steps; the largest Q-count in a P-free
  // window w satisfies: every window with count(w)+1 Q-steps must span a
  // P-step.
  std::int64_t max_q_in_window = 0;
  std::int64_t current = 0;
  for (std::int64_t idx = from; idx < to; ++idx) {
    const Pid step = s[idx];
    if (p.contains(step)) {
      current = 0;
    } else if (q.contains(step)) {
      ++current;
      max_q_in_window = std::max(max_q_in_window, current);
    }
  }
  return max_q_in_window + 1;
}

std::int64_t min_timeliness_bound_reference(const Schedule& s, ProcSet p,
                                            ProcSet q) {
  return min_timeliness_bound_reference(s, p, q, 0, s.size());
}

bool is_timely(const Schedule& s, ProcSet p, ProcSet q, std::int64_t bound) {
  SETLIB_EXPECTS(bound >= 1);
  return min_timeliness_bound(s, p, q) <= bound;
}

std::vector<std::int64_t> bound_series(const Schedule& s, ProcSet p, ProcSet q,
                                       const std::vector<std::int64_t>& cuts) {
  for (std::int64_t cut : cuts) {
    SETLIB_EXPECTS(cut >= 0 && cut <= s.size());
  }
  std::vector<std::int64_t> out(cuts.size());
  if (std::is_sorted(cuts.begin(), cuts.end())) {
    BoundTracker tracker(p, q);
    for (std::size_t c = 0; c < cuts.size(); ++c) {
      tracker.extend(s, cuts[c]);
      out[c] = tracker.bound();
    }
    return out;
  }
  // Out-of-order cuts: sort an index map once and serve every cut from
  // the same single incremental pass (a per-cut full rescan would be
  // O(len) each, O(len * cuts) total), scattering each bound back to
  // its request slot.
  std::vector<std::size_t> order(cuts.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&cuts](std::size_t a, std::size_t b) {
                     return cuts[a] < cuts[b];
                   });
  BoundTracker tracker(p, q);
  for (const std::size_t c : order) {
    tracker.extend(s, cuts[c]);
    out[c] = tracker.bound();
  }
  return out;
}

BoundTracker::BoundTracker(ProcSet p, ProcSet q) noexcept : p_(p), q_(q) {}

void BoundTracker::step(Pid pid) noexcept {
  if (p_.mask() >> pid & 1u) {
    current_ = 0;
  } else if (q_.mask() >> pid & 1u) {
    ++current_;
    if (current_ > max_q_) max_q_ = current_;
  }
  ++position_;
}

void BoundTracker::extend(const Schedule& s, std::int64_t upto) {
  SETLIB_EXPECTS(position_ <= upto && upto <= s.size());
  simd::WalkState scan{current_, max_q_};
  scan_step_range(s.steps(), p_.mask(), q_.mask(), position_, upto, scan);
  current_ = scan.current;
  max_q_ = scan.max_q;
  position_ = upto;
}

PackedSchedule::PackedSchedule(const Schedule& s) { repack(s); }

PackedSchedule::PackedSchedule(const Schedule& s,
                               util::ArenaAllocator& arena)
    : arena_(&arena) {
  repack(s);
}

PackedSchedule::PackedSchedule(ScheduleGenerator& gen, std::int64_t steps) {
  SETLIB_EXPECTS(steps >= 0);
  reset(gen.n(), steps);
  // 16 blocks per fill() call: the batch stays in L1, and the per-call
  // cost is spread over 1,024 steps.
  constexpr std::int64_t kPullSteps = 16 * kBitsPerWord;
  Pid pulled[kPullSteps];
  for (std::int64_t t0 = 0; t0 < len_; t0 += kPullSteps) {
    const std::int64_t count = std::min(kPullSteps, len_ - t0);
    gen.fill(std::span<Pid>(pulled, static_cast<std::size_t>(count)));
    for (std::int64_t t = 0; t < count; t += kBitsPerWord) {
      const std::int64_t w = (t0 + t) / kBitsPerWord;
      pack_block(pulled + t, block_steps(w), w);
    }
  }
}

void PackedSchedule::repack(const Schedule& s) {
  reset(s.n(), s.size());
  const Pid* steps = s.steps().data();
  for (std::int64_t w = 0; w < words_; ++w) {
    pack_block(steps + w * kBitsPerWord, block_steps(w), w);
  }
}

void PackedSchedule::reset(int n, std::int64_t len) {
  n_ = n;
  len_ = len;
  words_ = (len_ + kBitsPerWord - 1) / kBitsPerWord;
  const std::size_t total =
      static_cast<std::size_t>(n_) * static_cast<std::size_t>(words_);
  // No zero fill: pack_block writes every word.
  if (arena_ != nullptr) {
    data_ = arena_->alloc_array<std::uint64_t>(
        static_cast<std::int64_t>(total));
  } else {
    if (owned_.size() < total) owned_.resize(total);  // grow-only
    data_ = owned_.data();
  }
}

int PackedSchedule::block_steps(std::int64_t w) const noexcept {
  return static_cast<int>(
      std::min<std::int64_t>(kBitsPerWord, len_ - w * kBitsPerWord));
}

void PackedSchedule::pack_block(const Pid* steps, int count,
                                std::int64_t w) {
  // Gather the block's bits per process on the stack, then store one
  // word per column. Indexing by pid % 64 keeps a bad pid in bounds
  // until the range check after the loop rejects it.
  std::uint64_t acc[kBitsPerWord] = {};
  unsigned max_pid = 0;
  std::uint64_t bit = 1;
  for (int t = 0; t < count; ++t, bit <<= 1) {
    const auto p = static_cast<unsigned>(steps[t]);
    max_pid = std::max(max_pid, p);
    acc[p % kBitsPerWord] |= bit;
  }
  SETLIB_EXPECTS(max_pid < static_cast<unsigned>(n_));
  const auto stride = static_cast<std::size_t>(words_);
  for (int p = 0; p < n_; ++p) {
    data_[static_cast<std::size_t>(p) * stride +
          static_cast<std::size_t>(w)] = acc[p];
  }
}

const std::uint64_t* PackedSchedule::column(Pid p) const {
  SETLIB_EXPECTS(p >= 0 && p < n_);
  return data_ +
         static_cast<std::size_t>(p) * static_cast<std::size_t>(words_);
}

void PackedSchedule::or_columns(ProcSet s,
                                std::vector<std::uint64_t>& out) const {
  out.assign(static_cast<std::size_t>(words_), 0);
  or_columns(s, out.data());
}

void PackedSchedule::or_columns(ProcSet s, std::uint64_t* out) const {
  std::fill_n(out, static_cast<std::size_t>(words_), std::uint64_t{0});
  const simd::Kernels& kernels = simd::active_kernels();
  (s & ProcSet::universe(n_)).for_each([&](Pid p) {
    kernels.or_into(out, column(p), words_);
  });
}

std::int64_t PackedSchedule::bound_for(ProcSet p, ProcSet q) const {
  const ProcSet pu = p & ProcSet::universe(n_);
  const ProcSet qu = q & ProcSet::universe(n_);
  simd::WalkState scan;
  for (std::int64_t w = 0; w < words_; ++w) {
    std::uint64_t pw = 0;
    std::uint64_t qw = 0;
    pu.for_each(
        [&](Pid x) { pw |= column(x)[static_cast<std::size_t>(w)]; });
    qu.for_each(
        [&](Pid x) { qw |= column(x)[static_cast<std::size_t>(w)]; });
    simd::walk_word(pw, qw, scan);
  }
  return scan.max_q + 1;
}

RankedPairScan::RankedPairScan(const PackedSchedule& packed, int i, int j,
                               util::ArenaAllocator* arena)
    : packed_(&packed),
      i_(i),
      j_(j),
      arena_(arena),
      p_ranker_(packed.n(), i),
      q_ranker_(packed.n(), j) {
  SETLIB_EXPECTS(1 <= i && i <= packed.n());
  SETLIB_EXPECTS(1 <= j && j <= packed.n());
}

std::int64_t RankedPairScan::p_count() const noexcept {
  return p_ranker_.count();
}

std::int64_t RankedPairScan::q_count() const noexcept {
  return q_ranker_.count();
}

RankedPairScan::ScanOutcome RankedPairScan::scan(std::int64_t p_begin,
                                                 std::int64_t p_end,
                                                 std::int64_t bound_cap,
                                                 Mode mode) const {
  SETLIB_EXPECTS(0 <= p_begin && p_begin <= p_end &&
                 p_end <= p_ranker_.count());
  const std::int64_t words = packed_->words();
  ScanOutcome out;
  if (p_begin == p_end) return out;
  // Q-counts at or above prune_q cannot improve the outcome, so an
  // observer scan aborts the moment one P-free window reaches it. For
  // the exhaustive best-pair mode the cap tightens as the best bound
  // drops.
  std::int64_t prune_q = mode == Mode::kBest
                             ? std::numeric_limits<std::int64_t>::max()
                             : bound_cap;
  const simd::Kernels& kernels = simd::active_kernels();
  // Scratch: the shared per-P OR buffer (words) plus one Q chunk. The
  // Q side is built chunk by chunk, the first chunk one word and each
  // later one twice the last up to kQChunk, so a pair pruned in its
  // first words pays for those words only.
  constexpr std::int64_t kQChunk = 64;
  std::optional<util::FrameScope> frame;
  std::vector<std::uint64_t> fallback;
  std::uint64_t* pwords = nullptr;
  if (arena_ != nullptr) {
    frame.emplace(*arena_);
    pwords = arena_->alloc_array<std::uint64_t>(words + kQChunk);
  } else {
    fallback.resize(static_cast<std::size_t>(words + kQChunk));
    pwords = fallback.data();
  }
  std::uint64_t* const qbuf = pwords + words;
  // A large observer set is built as the complement of the OR of the
  // columns outside it: every step has exactly one pid, so within the
  // steps < size() the two agree, and the complement reads n - j
  // columns instead of j.
  const int n = packed_->n();
  const bool complement = 2 * j_ > n;
  const ProcSet universe = ProcSet::universe(n);
  // Steps < size() of the last word (1 to 64 of them).
  const std::uint64_t tail_mask = low_word_mask(
      static_cast<int>(packed_->size() - (words - 1) * kBitsPerWord));
  // Rank order is colex order: both sides start at their first rank
  // and step by successor.
  ProcSet p = p_ranker_.unrank(p_begin);
  const ProcSet q_first = q_ranker_.unrank(0);
  const std::int64_t q_total = q_ranker_.count();
  for (std::int64_t pr = p_begin; pr < p_end; ++pr, p = next_colex(p)) {
    packed_->or_columns(p, pwords);  // shared by every observer below
    ProcSet q = q_first;
    for (std::int64_t qr = 0; qr < q_total; ++qr, q = next_colex(q)) {
      ++out.pairs;
      const ProcSet built = complement ? universe - q : q;
      // Chunked Q-column OR + window walk, aborted at the prune cap.
      simd::WalkState window;
      bool pruned = false;
      std::int64_t chunk = 1;
      for (std::int64_t w = 0; w < words && !pruned;) {
        const std::int64_t c = std::min(chunk, words - w);
        std::fill_n(qbuf, static_cast<std::size_t>(c), std::uint64_t{0});
        built.for_each([&](Pid x) {
          kernels.or_into(qbuf, packed_->column(x) + w, c);
        });
        if (complement) {
          for (std::int64_t k = 0; k < c; ++k) qbuf[k] = ~qbuf[k];
          if (w + c == words) qbuf[c - 1] &= tail_mask;
        }
        pruned = kernels.window_walk(pwords + w, qbuf, c, prune_q, &window);
        w += c;
        chunk = std::min(2 * chunk, kQChunk);
      }
      if (pruned) continue;
      const std::int64_t bound = window.max_q + 1;
      switch (mode) {
        case Mode::kBest:
          if (!out.best || bound < out.best->bound) {
            out.best = TimelyPair{p, q, bound};
            // Only strictly smaller bounds matter from here on.
            prune_q = bound - 1;
          }
          break;
        case Mode::kWitness:
          out.best = TimelyPair{p, q, bound};
          out.members = 1;
          return out;
        case Mode::kCount:
          ++out.members;
          if (!out.best) out.best = TimelyPair{p, q, bound};
          break;
      }
    }
  }
  return out;
}

TimelyPair RankedPairScan::best_pair(std::int64_t p_begin,
                                     std::int64_t p_end) const {
  const ScanOutcome out = scan(p_begin, p_end, 0, Mode::kBest);
  if (out.best) return *out.best;
  return TimelyPair{ProcSet(), ProcSet(),
                    std::numeric_limits<std::int64_t>::max()};
}

std::optional<TimelyPair> RankedPairScan::find_witness(
    std::int64_t bound_cap, std::int64_t p_begin, std::int64_t p_end) const {
  SETLIB_EXPECTS(bound_cap >= 1);
  // A pair is a witness iff its worst window stays below the cap:
  // max_q <= cap - 1, i.e. the scan finishes without reaching prune_q
  // = cap.
  return scan(p_begin, p_end, bound_cap, Mode::kWitness).best;
}

RankedPairScan::MemberCount RankedPairScan::count_members(
    std::int64_t bound_cap, std::int64_t p_begin, std::int64_t p_end) const {
  SETLIB_EXPECTS(bound_cap >= 1);
  const ScanOutcome out = scan(p_begin, p_end, bound_cap, Mode::kCount);
  return MemberCount{out.pairs, out.members, out.best};
}

SystemMembership::SystemMembership(const Schedule& s)
    : n_(s.n()), len_(s.size()), packed_(s) {}

std::int64_t SystemMembership::bound_for(ProcSet p, ProcSet q) const {
  return packed_.bound_for(p, q);
}

TimelyPair SystemMembership::best_pair(int i, int j) const {
  SETLIB_EXPECTS(1 <= i && i <= n_);
  SETLIB_EXPECTS(1 <= j && j <= n_);
  return RankedPairScan(packed_, i, j).best_pair();
}

std::optional<TimelyPair> SystemMembership::find_witness(
    int i, int j, std::int64_t bound_cap) const {
  SETLIB_EXPECTS(1 <= i && i <= n_);
  SETLIB_EXPECTS(1 <= j && j <= n_);
  SETLIB_EXPECTS(bound_cap >= 1);
  return RankedPairScan(packed_, i, j).find_witness(bound_cap);
}

}  // namespace setlib::sched
