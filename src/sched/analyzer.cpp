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
// dispatched window walk and this on-the-fly packer share one
// definition.

// out[k] = the OR over the columns of `s` of word from + k, for k in
// [0, count); cols[x] is process x's packed timeline. Nearly every
// range a census builds is one word long.
void or_column_words(const std::uint64_t* const* cols, ProcSet s,
                     std::int64_t from, std::int64_t count,
                     std::uint64_t* out) {
  for (std::int64_t k = 0; k < count; ++k) {
    std::uint64_t word = 0;
    s.for_each([&](Pid x) { word |= cols[x][from + k]; });
    out[k] = word;
  }
}

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

// The one chunk-walk body behind every pair RankedPairScan judges. A
// pair is walked chunk by chunk, the first chunk one word and each
// later one twice the last up to kMaxChunk, so a pair pruned in its
// first words pays for those words only, on the P side as on the Q
// side: the observer chunk is ORed from its columns just before the
// walk reads it, and the current P's timeline is built only as far as
// some walk of that P has read, each word once. A large observer set
// is built as the complement of the OR of the columns outside it:
// every step has exactly one pid, so within the steps < size() the two
// agree, and the complement reads n - j columns instead of j.
class PairWalker {
 public:
  using Survivor = RankedPairScan::Survivor;

  PairWalker(const PackedSchedule& packed, int j,
             util::ArenaAllocator* arena)
      : words_(packed.words()),
        kernels_(simd::active_kernels()),
        complement_(2 * j > packed.n()),
        universe_(ProcSet::universe(packed.n())),
        // Steps < size() of the last word (1 to 64 of them).
        tail_mask_(low_word_mask(static_cast<int>(
            packed.size() - (packed.words() - 1) * kBitsPerWord))) {
    // Scratch: P's timeline (words) plus one observer chunk.
    if (arena != nullptr) {
      frame_.emplace(*arena);
      pwords_ = arena->alloc_array<std::uint64_t>(words_ + kMaxChunk);
    } else {
      fallback_.resize(static_cast<std::size_t>(words_ + kMaxChunk));
      pwords_ = fallback_.data();
    }
    qbuf_ = pwords_ + words_;
    for (Pid x = 0; x < packed.n(); ++x) cols_[x] = packed.column(x);
  }

  // The scratch lives in the arena frame this object holds.
  PairWalker(const PairWalker&) = delete;
  PairWalker& operator=(const PairWalker&) = delete;

  /// Makes `p` the timely set of the walks that follow; its timeline
  /// is built on demand from word `from` on.
  void start(ProcSet p, std::int64_t from) noexcept {
    p_ = p;
    p_ready_ = from;
  }

  /// Walks `pair` (whose P is the started one) on from pair.word until
  /// it prunes at prune_q (returns true) or reaches word `stop`.
  bool walk(Survivor& pair, std::int64_t stop, std::int64_t prune_q) {
    const ProcSet built = complement_ ? universe_ - pair.q : pair.q;
    while (pair.word < stop) {
      const std::int64_t w = pair.word;
      const std::int64_t c = std::min(pair.chunk, stop - w);
      if (w + c > p_ready_) {
        or_column_words(cols_, p_, p_ready_, w + c - p_ready_,
                        pwords_ + p_ready_);
        p_ready_ = w + c;
      }
      or_column_words(cols_, built, w, c, qbuf_);
      if (complement_) {
        for (std::int64_t k = 0; k < c; ++k) qbuf_[k] = ~qbuf_[k];
        if (w + c == words_) qbuf_[c - 1] &= tail_mask_;
      }
      pair.word = w + c;
      pair.chunk = std::min(2 * pair.chunk, kMaxChunk);
      if (kernels_.window_walk(pwords_ + w, qbuf_, c, prune_q,
                               &pair.window)) {
        return true;
      }
    }
    return false;
  }

 private:
  static constexpr std::int64_t kMaxChunk = 64;

  std::int64_t words_;
  const simd::Kernels& kernels_;
  bool complement_;
  ProcSet universe_;
  std::uint64_t tail_mask_;
  const std::uint64_t* cols_[kMaxProcs];
  std::optional<util::FrameScope> frame_;
  std::vector<std::uint64_t> fallback_;
  std::uint64_t* pwords_ = nullptr;
  std::uint64_t* qbuf_ = nullptr;
  ProcSet p_;
  std::int64_t p_ready_ = 0;  // pwords_[from, p_ready_) hold P's words
};

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

void BoundTracker::extend(const Schedule& s, std::int64_t upto) {
  SETLIB_EXPECTS(position_ <= upto && upto <= s.size());
  simd::WalkState scan{current_, max_q_};
  scan_step_range(s.steps(), p_.mask(), q_.mask(), position_, upto, scan);
  current_ = scan.current;
  max_q_ = scan.max_q;
  position_ = upto;
}

PackedSchedule::PackedSchedule(const Schedule& s) { repack(s); }

PackedSchedule::PackedSchedule(int n, std::int64_t steps) {
  SETLIB_EXPECTS(n >= 1 && n <= kMaxProcs);
  SETLIB_EXPECTS(steps >= 0);
  reset(n, steps);
}

PackedSchedule::PackedSchedule(ScheduleGenerator& gen, std::int64_t steps)
    : PackedSchedule(gen.n(), steps) {
  pack(gen, words_);
}

void PackedSchedule::pack(ScheduleGenerator& gen, std::int64_t upto) {
  SETLIB_EXPECTS(packed_ <= upto && upto <= words_);
  SETLIB_EXPECTS(gen.n() == n_);
  Pid pulled[kPullWords * kBitsPerWord];
  for (std::int64_t w0 = packed_; w0 < upto; w0 += kPullWords) {
    const std::int64_t w_end = std::min(w0 + kPullWords, upto);
    const std::int64_t count =
        std::min(w_end * kBitsPerWord, len_) - w0 * kBitsPerWord;
    gen.fill(std::span<Pid>(pulled, static_cast<std::size_t>(count)));
    for (std::int64_t w = w0; w < w_end; ++w) {
      pack_block(pulled + (w - w0) * kBitsPerWord, block_steps(w), w);
    }
  }
  packed_ = upto;
}

void PackedSchedule::repack(const Schedule& s) {
  reset(s.n(), s.size());
  const Pid* steps = s.steps().data();
  for (std::int64_t w = 0; w < words_; ++w) {
    pack_block(steps + w * kBitsPerWord, block_steps(w), w);
  }
  packed_ = words_;
}

void PackedSchedule::reset(int n, std::int64_t len) {
  n_ = n;
  len_ = len;
  words_ = (len_ + kBitsPerWord - 1) / kBitsPerWord;
  packed_ = 0;
  const std::size_t total =
      static_cast<std::size_t>(n_) * static_cast<std::size_t>(words_);
  // Grow-only; recycled words need no clearing, pack_block writes
  // every word.
  if (owned_.size() < total) owned_.resize(total);
  data_ = owned_.data();
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

std::int64_t PackedSchedule::bound_for(ProcSet p, ProcSet q) const {
  SETLIB_EXPECTS(packed_ == words_);
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
                               util::ArenaAllocator* arena,
                               std::int64_t horizon)
    : packed_(&packed),
      i_(i),
      j_(j),
      arena_(arena),
      horizon_(horizon),
      p_ranker_(packed.n(), i),
      q_ranker_(packed.n(), j) {
  SETLIB_EXPECTS(1 <= i && i <= packed.n());
  SETLIB_EXPECTS(1 <= j && j <= packed.n());
  SETLIB_EXPECTS(horizon >= 0);
}

std::int64_t RankedPairScan::p_count() const noexcept {
  return p_ranker_.count();
}

std::int64_t RankedPairScan::q_count() const noexcept {
  return q_ranker_.count();
}

RankedPairScan::ScanOutcome RankedPairScan::scan(
    std::int64_t p_begin, std::int64_t p_end, std::int64_t bound_cap,
    Mode mode, std::vector<Survivor>* survivors) const {
  SETLIB_EXPECTS(0 <= p_begin && p_begin <= p_end &&
                 p_end <= p_ranker_.count());
  const std::int64_t words = packed_->words();
  const std::int64_t stop = std::min(horizon_, words);
  SETLIB_EXPECTS(stop == words || survivors != nullptr);
  ScanOutcome out;
  if (p_begin == p_end) return out;
  // Q-counts at or above prune_q cannot improve the outcome, so an
  // observer walk aborts the moment one P-free window reaches it. For
  // the exhaustive best-pair mode the cap tightens as the best bound
  // drops.
  std::int64_t prune_q = mode == Mode::kBest
                             ? std::numeric_limits<std::int64_t>::max()
                             : bound_cap;
  PairWalker walker(*packed_, j_, arena_);
  // Rank order is colex order: both sides start at their first rank
  // and step by successor.
  ProcSet p = p_ranker_.unrank(p_begin);
  const ProcSet q_first = q_ranker_.unrank(0);
  const std::int64_t q_total = q_ranker_.count();
  for (std::int64_t pr = p_begin; pr < p_end; ++pr, p = next_colex(p)) {
    walker.start(p, 0);
    ProcSet q = q_first;
    for (std::int64_t qr = 0; qr < q_total; ++qr, q = next_colex(q)) {
      ++out.pairs;
      Survivor pair;
      pair.p = p;
      pair.q = q;
      if (walker.walk(pair, stop, prune_q)) continue;
      if (pair.word < words) {  // unpruned at the horizon
        // Past its first survivor, a call reserves room for every pair
        // it has left instead of regrowing by doubling; a census with
        // one survivor per chunk keeps its one-slot vector.
        if (!survivors->empty() &&
            survivors->size() == survivors->capacity()) {
          survivors->reserve(survivors->size() +
                             static_cast<std::size_t>(
                                 (p_end - pr) * q_total - qr));
        }
        survivors->push_back(pair);
        continue;
      }
      const std::int64_t bound = pair.window.max_q + 1;
      switch (mode) {
        case Mode::kBest:
          if (!out.best || bound < out.best->bound) {
            out.best = TimelyPair{p, q, bound};
            // Only strictly smaller bounds matter from here on.
            prune_q = bound - 1;
          }
          break;
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
  SETLIB_EXPECTS(horizon_ == kNoHorizon);
  const ScanOutcome out = scan(p_begin, p_end, 0, Mode::kBest, nullptr);
  if (out.best) return *out.best;
  return TimelyPair{ProcSet(), ProcSet(),
                    std::numeric_limits<std::int64_t>::max()};
}

RankedPairScan::MemberCount RankedPairScan::count_members(
    std::int64_t bound_cap, std::int64_t p_begin, std::int64_t p_end,
    std::vector<Survivor>* survivors) const {
  SETLIB_EXPECTS(bound_cap >= 1);
  const ScanOutcome out =
      scan(p_begin, p_end, bound_cap, Mode::kCount, survivors);
  return MemberCount{out.pairs, out.members, out.best};
}

RankedPairScan::MemberCount RankedPairScan::finish(
    std::int64_t bound_cap, std::span<const Survivor> survivors) const {
  SETLIB_EXPECTS(bound_cap >= 1);
  SETLIB_EXPECTS(packed_->packed_words() == packed_->words());
  MemberCount out;
  if (survivors.empty()) return out;
  PairWalker walker(*packed_, j_, arena_);
  for (std::size_t k = 0; k < survivors.size(); ++k) {
    Survivor pair = survivors[k];
    SETLIB_EXPECTS(pair.p.size() == i_ && pair.q.size() == j_);
    if (k == 0 || pair.p != survivors[k - 1].p ||
        pair.word != survivors[k - 1].word) {
      walker.start(pair.p, pair.word);
    }
    if (walker.walk(pair, packed_->words(), bound_cap)) continue;
    ++out.members;
    if (!out.first) {
      out.first = TimelyPair{pair.p, pair.q, pair.window.max_q + 1};
    }
  }
  return out;
}

}  // namespace setlib::sched
