// Timeliness analysis: the executable form of Definition 1.
//
// For a finite schedule prefix S and sets P, Q, min_timeliness_bound
// computes the least b such that every window of S containing b steps of
// Q contains a step of P. Equivalently, b = 1 + the maximum number of
// Q-steps in any P-free window of S. On an infinite schedule, "P timely
// w.r.t. Q" (Definition 1) means these per-prefix bounds stay bounded as
// the prefix grows; experiments therefore either
//   (a) track the bound across growing prefixes (BoundTracker), or
//   (b) check the bound over a suffix, after stabilization.
//
// The analysis core is word-packed: PackedSchedule encodes each step's
// Pid as a bit column (64 steps per word, one timeline per process), so
// a P-free-window scan is branch-free word operations — OR the columns
// of P and Q, then split each word at its P-bits with mask/popcount.
// The batched pair scan ORs its column words inline, runs the window
// walk through src/sched/simd.h (one integer walk, compiled for popcnt
// where the host has it), and keeps its scratch on a caller-supplied
// arena (src/util/arena.h) so steady-state scans allocate nothing.
// Three surfaces build on it:
//   - min_timeliness_bound / BoundTracker: one-shot and per-prefix
//     bounds on an unpacked Schedule, both loops over BoundTracker::step
//     (the one streaming rule, which the simulator also runs per
//     executed step). BoundTracker extends a bound incrementally by ΔS
//     steps in O(Δ), so a growing-prefix series costs O(len) total
//     instead of the O(len^2) of recomputing each cut from scratch.
//   - PackedSchedule::bound_for: one pair's bound on a packed prefix.
//   - RankedPairScan answers "S in S^i_{j,n}" on a prefix: does some
//     (P, Q) pair with |P| = i, |Q| = j meet the bound cap?
//     count_members(cap).first is the earliest such pair. (Observation
//     5's degenerate case P = Q makes any schedule a member when
//     i == j, which the paper uses to identify S^i_{i,n} with the
//     asynchronous system.) It batches all C(n,i) x C(n,j) pairs
//     through a shared scan: each P's packed timeline is OR'd at most
//     once and reused by every observer set, a bound cap aborts an
//     observer as soon as one window already exceeds it, and
//     enumeration follows
//     SubsetRanker (combinadic) order so results — including argmin
//     tie-breaks — are identical to the exhaustive nested loops. The
//     scan is prune-first on both sides: a pair is walked in chunks
//     that start at one word and double up to 64, its observer
//     timeline is built chunk by chunk, and P's timeline only as far
//     as the deepest walk of its observers has read, so a pair pruned
//     in its first words reads only those words; an observer set larger
//     than half the universe is built as the complement of the OR of
//     the columns outside it; and observer sets advance by colex
//     successor (next_colex) instead of being unranked per pair. In
//     count mode a scan can stop every walk at a horizon word and hand
//     back the pairs still unpruned there; finish() resumes them once
//     the rest of the prefix is packed, which lets the census scan
//     while it packs.
//
// min_timeliness_bound_reference is the original per-step scan, kept
// as the executable specification: the randomized equivalence tests
// (and the bench speedup sections) diff the packed paths against it.
#ifndef SETLIB_SCHED_ANALYZER_H
#define SETLIB_SCHED_ANALYZER_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "src/sched/generator.h"
#include "src/sched/schedule.h"
#include "src/sched/simd.h"
#include "src/util/arena.h"
#include "src/util/procset.h"

namespace setlib::sched {

/// Least b such that every window of `s` (restricted to [from, to)) with
/// b Q-steps contains a P-step. Returns 1 if Q takes < 1 steps in any
/// P-free window (in particular if P == Q, or Q never steps).
std::int64_t min_timeliness_bound(const Schedule& s, ProcSet p, ProcSet q,
                                  std::int64_t from, std::int64_t to);
std::int64_t min_timeliness_bound(const Schedule& s, ProcSet p, ProcSet q);

/// The pre-word-packed implementation (one branchy pass per step),
/// retained as the executable spec for differential testing and the
/// speedup baselines. Bit-identical to min_timeliness_bound.
std::int64_t min_timeliness_bound_reference(const Schedule& s, ProcSet p,
                                            ProcSet q, std::int64_t from,
                                            std::int64_t to);
std::int64_t min_timeliness_bound_reference(const Schedule& s, ProcSet p,
                                            ProcSet q);

/// Incremental Definition 1 state for one (P, Q) pair: feed schedule
/// steps as they are produced and read the minimal bound of the prefix
/// consumed so far at any moment. extend() by ΔS steps costs O(Δ) —
/// the bound of every growing prefix of a length-L schedule costs O(L)
/// total, where recomputation costs O(L^2). step() is the streaming
/// rule itself: shm::Simulator feeds it every executed step to report
/// the run's witness bound.
class BoundTracker {
 public:
  BoundTracker(ProcSet p, ProcSet q) noexcept
      : p_(p), q_(q), counted_((q - p).mask()) {}

  ProcSet timely_set() const noexcept { return p_; }
  ProcSet observed_set() const noexcept { return q_; }

  /// Steps consumed so far.
  std::int64_t position() const noexcept { return position_; }

  /// Minimal timeliness bound of the consumed prefix; equals
  /// min_timeliness_bound(s, p, q, 0, position()).
  std::int64_t bound() const noexcept { return max_q_ + 1; }

  /// Feed one step: a P-step closes the window, a (Q \ P)-step counts
  /// in it (a step in both is a P-step, as in the reference scan).
  /// Branch-free, since it runs once per simulated step.
  void step(Pid pid) noexcept {
    const std::int64_t counted =
        current_ + static_cast<std::int64_t>(counted_ >> pid & 1);
    const auto in_p = static_cast<std::int64_t>(p_.mask() >> pid & 1);
    max_q_ = std::max(max_q_, counted);
    current_ = counted & (in_p - 1);
    ++position_;
  }

  /// Consume s's steps [position(), upto) — requires position() <= upto
  /// <= s.size() and that the already-consumed prefix came from the
  /// same step sequence. The overload without `upto` consumes to the
  /// end.
  void extend(const Schedule& s, std::int64_t upto);
  void extend(const Schedule& s) { extend(s, s.size()); }

 private:
  ProcSet p_;
  ProcSet q_;
  std::uint64_t counted_;     // Q \ P: the steps a window counts
  std::int64_t position_ = 0;
  std::int64_t current_ = 0;  // Q-steps since the last P-step
  std::int64_t max_q_ = 0;    // largest P-free-window Q-count seen
};

/// Word-packed step representation: one bit timeline per process, 64
/// steps per word. Column p has bit t set iff step t is taken by p.
/// Built once, a PackedSchedule serves every pair scan over the same
/// prefix (bound_for, RankedPairScan) with pure word ops.
///
/// Pack-once ownership contract (docs/MEMORY.md): whoever scans a
/// schedule's pairs packs it exactly once, and every downstream
/// consumer (pair scans, frontier checks) borrows that instance
/// read-only. The engine packs nothing: its one pair's bound is
/// streamed by the simulator (BoundTracker::step per executed step).
/// A consumer that never reads the steps themselves (the membership
/// census) packs straight from the generator and never materializes a
/// Schedule; it may pack in steps (a sized constructor, then pack()
/// up to a word), and readers then borrow only the words packed before
/// they started. The words are always heap-owned; repack() recycles
/// them across schedules, so a loop that analyzes many schedules (the
/// fuzzer's minimization evals) allocates its words once. Every
/// constructor, pack() and repack() share one block packer: 64 steps
/// become one word of every column.
class PackedSchedule {
 public:
  /// Empty (n = 0, size = 0): a repack target for reuse loops.
  PackedSchedule() noexcept = default;
  explicit PackedSchedule(const Schedule& s);
  /// Sized for `steps` steps of an n-process schedule with no word
  /// packed yet: pack() fills the words from a generator, in one call
  /// or several. The word storage is the only allocation.
  PackedSchedule(int n, std::int64_t steps);
  /// Packs the next `steps` steps of `gen` straight into the words:
  /// PackedSchedule(gen.n(), steps) followed by pack(gen, words()).
  /// No Schedule is materialized. The columns equal
  /// PackedSchedule(generate(gen, steps)), and `gen` is left exactly
  /// `steps` steps further on.
  PackedSchedule(ScheduleGenerator& gen, std::int64_t steps);

  // The word storage is borrowed by reference everywhere (column()
  // pointers); copying would silently fork it.
  PackedSchedule(const PackedSchedule&) = delete;
  PackedSchedule& operator=(const PackedSchedule&) = delete;

  /// Re-packs `s` into this instance, recycling the word storage (its
  /// capacity only grows). Invalidates column() pointers.
  void repack(const Schedule& s);

  /// Steps pack() pulls from a generator per fill() call, in words:
  /// 16 blocks of 64 steps, a batch that stays in L1 and spreads the
  /// per-call cost over 1,024 steps. It is also the census horizon
  /// (core::ranked_pair_scan): the words packed before its pool job.
  static constexpr std::int64_t kPullWords = 16;

  /// The one generator pack loop: pulls the next steps of `gen` and
  /// packs them into words [packed_words(), upto), kPullWords words
  /// per fill() call. Requires packed_words() <= upto <= words() and
  /// gen.n() == n(). Packing in several calls gives the columns and
  /// leaves `gen` where one call would. Words below packed_words() are
  /// never written again, so other threads may read them while a later
  /// call packs the rest.
  void pack(ScheduleGenerator& gen, std::int64_t upto);

  int n() const noexcept { return n_; }
  std::int64_t size() const noexcept { return len_; }
  /// Words per column: ceil(size() / 64).
  std::int64_t words() const noexcept { return words_; }
  /// Words packed so far: words() except between a sized constructor
  /// and the pack() call that reaches words().
  std::int64_t packed_words() const noexcept { return packed_; }

  /// Process p's packed timeline (words() words; bits past size() are
  /// zero; words at or past packed_words() are unspecified).
  const std::uint64_t* column(Pid p) const;

  /// min_timeliness_bound(s, p, q) over the packed prefix. Requires
  /// every word packed.
  std::int64_t bound_for(ProcSet p, ProcSet q) const;

 private:
  /// Sizes the word storage for n processes x len steps, none packed.
  /// Contents are left unspecified: pack_block writes every word of
  /// its block.
  void reset(int n, std::int64_t len);
  /// Steps in block w (64, or fewer in the last block).
  int block_steps(std::int64_t w) const noexcept;
  /// The one pack loop: steps[0, count) become bits [0, count) of word
  /// w of every column.
  void pack_block(const Pid* steps, int count, std::int64_t w);

  int n_ = 0;
  std::int64_t len_ = 0;
  std::int64_t words_ = 0;
  std::int64_t packed_ = 0;  // words [0, packed_) are packed
  // Column-major words: [p * words_ + w], data_ == owned_.data().
  std::vector<std::uint64_t> owned_;
  std::uint64_t* data_ = nullptr;
};

struct TimelyPair {
  ProcSet timely_set;   // P, |P| = i
  ProcSet observed_set; // Q, |Q| = j
  std::int64_t bound;   // minimal bound for this pair on the prefix
};

/// Batched scan of every (P, Q) pair with |P| = i, |Q| = j over one
/// packed prefix. P-subsets enumerate in SubsetRanker (combinadic)
/// order; each P's OR'd timeline is built lazily, only as far as its
/// observer walks read, and shared by all C(n,j) observer sets;
/// observer scans fuse the Q-column OR with the window walk, chunk by
/// chunk (1, 2, 4, ... up to 64 words; for 2j > n, the inverted OR of
/// the n - j columns outside Q), and abort as soon as one P-free
/// window reaches the bound cap, so a pruned pair costs the words up
/// to its prune point on both sides. count_members' [p_begin, p_end)
/// rank ranges let callers shard the P-space (e.g. across an
/// ExperimentRunner pool): counts over a partition of [0, p_count())
/// compose to the full-range count; best_pair scans the whole range.
///
/// Count mode can stop at a horizon, so a census can scan the words
/// already packed while the rest is still being packed: every pair is
/// walked over words [0, horizon) only, and a pair still unpruned
/// there becomes a Survivor that finish() resumes with the same chunk
/// walk once the whole prefix is packed. Horizon counts plus the
/// finish of their survivors equal the count without a horizon.
class RankedPairScan {
 public:
  /// No horizon: every walk may read the whole prefix.
  static constexpr std::int64_t kNoHorizon =
      std::numeric_limits<std::int64_t>::max();

  /// With an arena, per-call scratch (the shared P OR-buffer and the
  /// 64-word Q chunk buffer) is bump-allocated inside a FrameScope per
  /// scan call instead of hitting the heap. The arena is mutated by
  /// the (const) scan calls, so a scan object with an arena belongs to
  /// one thread — pool consumers build one RankedPairScan per worker
  /// over the shared PackedSchedule. With a `horizon` (>= 0), the scan
  /// reads words [0, horizon) only, which must be packed; it serves
  /// count_members only.
  RankedPairScan(const PackedSchedule& packed, int i, int j,
                 util::ArenaAllocator* arena = nullptr,
                 std::int64_t horizon = kNoHorizon);

  int i() const noexcept { return i_; }
  int j() const noexcept { return j_; }
  /// C(n, i): the P-rank space scans shard over.
  std::int64_t p_count() const noexcept;
  /// C(n, j) observer sets per P.
  std::int64_t q_count() const noexcept;

  /// The pair with the smallest bound (ties: first in enumeration
  /// order) — exhaustive, with the running best bound as the prune cap.
  /// Requires a scan without a horizon.
  TimelyPair best_pair() const;

  struct MemberCount {
    std::int64_t pairs = 0;    // pairs scanned
    std::int64_t members = 0;  // pairs with bound <= cap
    std::optional<TimelyPair> first;  // earliest member, if any
  };

  /// One pair's walk in progress: its window-walk state, the next word
  /// to walk and the size of the next chunk. A horizon count hands out
  /// the pairs still unpruned at the horizon in this form.
  struct Survivor {
    ProcSet p;
    ProcSet q;
    simd::WalkState window;
    std::int64_t word = 0;
    std::int64_t chunk = 1;
  };

  /// Count of pairs with bound <= bound_cap among P-ranks
  /// [p_begin, p_end) — the exhaustive membership census behind the
  /// large-n detector sweeps. When the horizon cuts the prefix, a pair
  /// still unpruned at the horizon is counted in `pairs` but not yet
  /// judged: it is appended to *survivors (required then) in rank
  /// order, and finish() completes it. A horizon count judges either
  /// every pair (the prefix fits under the horizon) or none that
  /// survives, so its `first` is never later than finish()'s.
  MemberCount count_members(std::int64_t bound_cap, std::int64_t p_begin,
                            std::int64_t p_end,
                            std::vector<Survivor>* survivors = nullptr) const;
  MemberCount count_members(std::int64_t bound_cap) const {
    return count_members(bound_cap, 0, p_count());
  }

  /// Walks `survivors` of a horizon count with the same bound_cap to
  /// the end of the prefix, which must be packed by now: their
  /// members and the earliest of them (pairs = 0, since the horizon
  /// count counted them). Survivors of one P share its words.
  MemberCount finish(std::int64_t bound_cap,
                     std::span<const Survivor> survivors) const;

 private:
  enum class Mode { kBest, kCount };

  struct ScanOutcome {
    std::optional<TimelyPair> best;
    std::int64_t pairs = 0;
    std::int64_t members = 0;
  };

  ScanOutcome scan(std::int64_t p_begin, std::int64_t p_end,
                   std::int64_t bound_cap, Mode mode,
                   std::vector<Survivor>* survivors) const;

  const PackedSchedule* packed_;
  int i_;
  int j_;
  util::ArenaAllocator* arena_;  // scratch home; nullptr = heap
  std::int64_t horizon_;
  SubsetRanker p_ranker_;
  SubsetRanker q_ranker_;
};

}  // namespace setlib::sched

#endif  // SETLIB_SCHED_ANALYZER_H
