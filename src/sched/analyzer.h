// Timeliness analysis: the executable form of Definition 1.
//
// For a finite schedule prefix S and sets P, Q, min_timeliness_bound
// computes the least b such that every window of S containing b steps of
// Q contains a step of P. Equivalently, b = 1 + the maximum number of
// Q-steps in any P-free window of S. On an infinite schedule, "P timely
// w.r.t. Q" (Definition 1) means these per-prefix bounds stay bounded as
// the prefix grows; experiments therefore either
//   (a) track the bound across growing prefixes (Figure 1 harness), or
//   (b) check the bound over a suffix, after stabilization.
//
// The analysis core is word-packed: PackedSchedule encodes each step's
// Pid as a bit column (64 steps per word, one timeline per process), so
// a P-free-window scan is branch-free word operations — OR the columns
// of P and Q, then split each word at its P-bits with mask/popcount.
// The batched pair scan runs its OR+walk inner loop through the
// runtime-dispatched SIMD kernel layer (src/sched/simd.h: AVX2 / NEON /
// portable scalar, bit-identical by construction, forced-scalar via
// SETLIB_FORCE_SCALAR for differential runs) and keeps its scratch on
// a caller-supplied arena (src/util/arena.h) so steady-state scans
// allocate nothing.
// Three surfaces build on it:
//   - min_timeliness_bound / bound_series: one-shot and per-prefix
//     bounds. BoundTracker extends a bound incrementally by ΔS steps in
//     O(Δ), so a growing-prefix series costs O(len) total instead of
//     the O(len^2) of recomputing each cut from scratch.
//   - SystemMembership implements "S in S^i_{j,n}" on a prefix: does
//     some (P, Q) pair with |P| = i, |Q| = j satisfy the bound?
//     (Observation 5's degenerate case P = Q makes any schedule a
//     member when i == j, which the paper uses to identify S^i_{i,n}
//     with the asynchronous system.)
//   - RankedPairScan batches all C(n,i) x C(n,j) pairs through a
//     shared scan: each P's packed timeline is OR'd once and reused by
//     every observer set, a bound cap aborts an observer as soon as
//     one window already exceeds it, and enumeration follows
//     SubsetRanker (combinadic) order so results — including argmin
//     tie-breaks — are identical to the exhaustive nested loops. The
//     scan is prune-first: an observer's timeline is built in chunks
//     that start at one word and double up to 64, so a pair pruned in
//     its first words reads only those words; an observer set larger
//     than half the universe is built as the complement of the OR of
//     the columns outside it; and observer sets advance by colex
//     successor (next_colex) instead of being unranked per pair.
//
// min_timeliness_bound_reference is the original per-step scan, kept
// as the executable specification: the randomized equivalence tests
// (and the bench speedup sections) diff the packed paths against it.
#ifndef SETLIB_SCHED_ANALYZER_H
#define SETLIB_SCHED_ANALYZER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "src/sched/generator.h"
#include "src/sched/schedule.h"
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

/// Definition 1 on the prefix: is P timely w.r.t. Q with the given bound?
bool is_timely(const Schedule& s, ProcSet p, ProcSet q, std::int64_t bound);

/// Per-phase bound series: bounds of growing prefixes cut at the given
/// offsets. Used by the Figure 1 harness to show divergence vs.
/// boundedness. Every cut order costs one incremental BoundTracker
/// pass — O(len + cuts log cuts) total: out-of-order cuts are sorted
/// with an index map once and served from the same single pass, then
/// scattered back to request order.
std::vector<std::int64_t> bound_series(const Schedule& s, ProcSet p, ProcSet q,
                                       const std::vector<std::int64_t>& cuts);

/// Incremental Definition 1 state for one (P, Q) pair: feed schedule
/// steps as they are produced and read the minimal bound of the prefix
/// consumed so far at any moment. extend() by ΔS steps costs O(Δ) —
/// the bound of every growing prefix of a length-L schedule costs O(L)
/// total, where recomputation costs O(L^2).
class BoundTracker {
 public:
  BoundTracker(ProcSet p, ProcSet q) noexcept;

  ProcSet timely_set() const noexcept { return p_; }
  ProcSet observed_set() const noexcept { return q_; }

  /// Steps consumed so far.
  std::int64_t position() const noexcept { return position_; }

  /// Minimal timeliness bound of the consumed prefix; equals
  /// min_timeliness_bound(s, p, q, 0, position()).
  std::int64_t bound() const noexcept { return max_q_ + 1; }

  /// Feed one step.
  void step(Pid pid) noexcept;

  /// Consume s's steps [position(), upto) — requires position() <= upto
  /// <= s.size() and that the already-consumed prefix came from the
  /// same step sequence. The overload without `upto` consumes to the
  /// end.
  void extend(const Schedule& s, std::int64_t upto);
  void extend(const Schedule& s) { extend(s, s.size()); }

 private:
  ProcSet p_;
  ProcSet q_;
  std::int64_t position_ = 0;
  std::int64_t current_ = 0;  // Q-steps since the last P-step
  std::int64_t max_q_ = 0;    // largest P-free-window Q-count seen
};

/// Word-packed step representation: one bit timeline per process, 64
/// steps per word. Column p has bit t set iff step t is taken by p.
/// Built once, a PackedSchedule serves every pair scan over the same
/// prefix (SystemMembership, RankedPairScan) with pure word ops.
///
/// Pack-once ownership contract (docs/MEMORY.md): whoever executes a
/// schedule packs it exactly once — on its per-cell arena when it has
/// one — and every downstream consumer (engine report, pair scans,
/// frontier checks) borrows that instance read-only. A consumer that
/// never reads the steps themselves (the membership census) packs
/// straight from the generator and never materializes a Schedule.
/// repack() recycles the word storage across schedules, so a loop
/// that analyzes many schedules (the fuzzer's minimization evals, the
/// frontier's cell loop) allocates its words once. Every constructor
/// and repack() share one block packer: 64 steps become one word of
/// every column.
class PackedSchedule {
 public:
  /// Empty (n = 0, size = 0): a repack target for reuse loops.
  PackedSchedule() noexcept = default;
  explicit PackedSchedule(const Schedule& s);
  /// Words live on `arena` (no heap traffic when the arena's reserve
  /// covers them). The arena must outlive the object, and the caller's
  /// frame discipline governs the storage — repack() on an
  /// arena-backed instance bumps fresh words from the arena.
  PackedSchedule(const Schedule& s, util::ArenaAllocator& arena);
  /// Packs the next `steps` steps of `gen` straight into the words:
  /// pulled through gen.fill() 1,024 at a time into a stack buffer and
  /// packed one 64-step block at a time. No Schedule is materialized,
  /// and the words are the only allocation. The columns equal
  /// PackedSchedule(generate(gen, steps)), and `gen` is left exactly
  /// `steps` steps further on.
  PackedSchedule(ScheduleGenerator& gen, std::int64_t steps);

  // The word storage is borrowed by reference everywhere (column()
  // pointers); copying would silently fork it.
  PackedSchedule(const PackedSchedule&) = delete;
  PackedSchedule& operator=(const PackedSchedule&) = delete;

  /// Re-packs `s` into this instance, recycling the word storage:
  /// heap-backed instances reuse their vector capacity (grow-only),
  /// arena-backed ones bump a fresh span. Invalidates column()
  /// pointers.
  void repack(const Schedule& s);

  int n() const noexcept { return n_; }
  std::int64_t size() const noexcept { return len_; }
  /// Words per column: ceil(size() / 64).
  std::int64_t words() const noexcept { return words_; }

  /// Process p's packed timeline (words() words; bits past size() are
  /// zero).
  const std::uint64_t* column(Pid p) const;

  /// OR of the member columns of `s` (members >= n() are ignored) into
  /// `out`, resized to words(). The packed form of "a step of the set".
  void or_columns(ProcSet s, std::vector<std::uint64_t>& out) const;
  /// Same, into a caller-owned buffer of words() words (overwritten).
  void or_columns(ProcSet s, std::uint64_t* out) const;

  /// min_timeliness_bound(s, p, q) over the packed prefix.
  std::int64_t bound_for(ProcSet p, ProcSet q) const;

 private:
  /// Sizes the word storage for n processes x len steps. Contents are
  /// left unspecified: pack_block writes every word of its block.
  void reset(int n, std::int64_t len);
  /// Steps in block w (64, or fewer in the last block).
  int block_steps(std::int64_t w) const noexcept;
  /// The one pack loop: steps[0, count) become bits [0, count) of word
  /// w of every column.
  void pack_block(const Pid* steps, int count, std::int64_t w);

  int n_ = 0;
  std::int64_t len_ = 0;
  std::int64_t words_ = 0;
  // Column-major words: [p * words_ + w]. data_ points into owned_
  // (heap-backed) or into arena_ storage (arena-backed).
  std::vector<std::uint64_t> owned_;
  util::ArenaAllocator* arena_ = nullptr;
  std::uint64_t* data_ = nullptr;
};

struct TimelyPair {
  ProcSet timely_set;   // P, |P| = i
  ProcSet observed_set; // Q, |Q| = j
  std::int64_t bound;   // minimal bound for this pair on the prefix
};

/// Batched scan of every (P, Q) pair with |P| = i, |Q| = j over one
/// packed prefix. P-subsets enumerate in SubsetRanker (combinadic)
/// order; each P's OR'd timeline is computed once and shared by all
/// C(n,j) observer sets; observer scans fuse the Q-column OR with the
/// window walk, chunk by chunk (1, 2, 4, ... up to 64 words; for
/// 2j > n, the inverted OR of the n - j columns outside Q), and abort
/// as soon as one P-free window reaches the bound cap, so a pruned
/// pair costs the words up to its prune point. The [p_begin, p_end)
/// rank ranges let callers shard the
/// P-space (e.g. across an ExperimentRunner pool): results over a
/// partition of [0, p_count()) compose to the full-range result.
class RankedPairScan {
 public:
  /// With an arena, per-call scratch (the shared P OR-buffer and the
  /// 64-word Q chunk buffer) is bump-allocated inside a FrameScope per
  /// scan call instead of hitting the heap. The arena is mutated by
  /// the (const) scan calls, so a scan object with an arena belongs to
  /// one thread — pool consumers build one RankedPairScan per worker
  /// over the shared PackedSchedule.
  RankedPairScan(const PackedSchedule& packed, int i, int j,
                 util::ArenaAllocator* arena = nullptr);

  int i() const noexcept { return i_; }
  int j() const noexcept { return j_; }
  /// C(n, i): the P-rank space scans shard over.
  std::int64_t p_count() const noexcept;
  /// C(n, j) observer sets per P.
  std::int64_t q_count() const noexcept;

  /// The pair with the smallest bound among P-ranks [p_begin, p_end)
  /// (ties: first in enumeration order) — exhaustive, with the running
  /// best bound as the prune cap.
  TimelyPair best_pair(std::int64_t p_begin, std::int64_t p_end) const;
  TimelyPair best_pair() const { return best_pair(0, p_count()); }

  /// First pair in enumeration order with bound <= bound_cap among
  /// P-ranks [p_begin, p_end), if any.
  std::optional<TimelyPair> find_witness(std::int64_t bound_cap,
                                         std::int64_t p_begin,
                                         std::int64_t p_end) const;
  std::optional<TimelyPair> find_witness(std::int64_t bound_cap) const {
    return find_witness(bound_cap, 0, p_count());
  }

  struct MemberCount {
    std::int64_t pairs = 0;    // pairs scanned
    std::int64_t members = 0;  // pairs with bound <= cap
    std::optional<TimelyPair> first;  // earliest member, if any
  };

  /// Count of pairs with bound <= bound_cap among P-ranks
  /// [p_begin, p_end) — the exhaustive membership census behind the
  /// large-n detector sweeps.
  MemberCount count_members(std::int64_t bound_cap, std::int64_t p_begin,
                            std::int64_t p_end) const;
  MemberCount count_members(std::int64_t bound_cap) const {
    return count_members(bound_cap, 0, p_count());
  }

 private:
  enum class Mode { kBest, kWitness, kCount };

  struct ScanOutcome {
    std::optional<TimelyPair> best;
    std::int64_t pairs = 0;
    std::int64_t members = 0;
  };

  ScanOutcome scan(std::int64_t p_begin, std::int64_t p_end,
                   std::int64_t bound_cap, Mode mode) const;

  const PackedSchedule* packed_;
  int i_;
  int j_;
  util::ArenaAllocator* arena_;  // scratch home; nullptr = heap
  SubsetRanker p_ranker_;
  SubsetRanker q_ranker_;
};

class SystemMembership {
 public:
  /// Packs the prefix once (O(len) time, n * len / 64 words of space);
  /// every per-pair query afterwards runs on word operations.
  explicit SystemMembership(const Schedule& s);

  int n() const noexcept { return n_; }

  const PackedSchedule& packed() const noexcept { return packed_; }

  /// Minimal bound for a specific pair (same value as
  /// min_timeliness_bound, but O(words * (|P| + |Q|)) word ops on the
  /// shared packed prefix).
  std::int64_t bound_for(ProcSet p, ProcSet q) const;

  /// The pair of sizes (i, j) with the smallest bound over the prefix;
  /// exhaustive over C(n,i) * C(n,j) pairs via RankedPairScan (shared
  /// per-P timelines + best-bound pruning).
  TimelyPair best_pair(int i, int j) const;

  /// Membership in S^i_{j,n} at the given bound cap: exists (P, Q) with
  /// |P| = i, |Q| = j and bound <= cap. Early-exits on first witness.
  std::optional<TimelyPair> find_witness(int i, int j,
                                         std::int64_t bound_cap) const;

 private:
  int n_;
  std::int64_t len_;
  PackedSchedule packed_;
};

}  // namespace setlib::sched

#endif  // SETLIB_SCHED_ANALYZER_H
