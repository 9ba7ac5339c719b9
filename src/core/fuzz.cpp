#include "src/core/fuzz.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/core/sweep.h"
#include "src/sched/analyzer.h"
#include "src/sched/families.h"
#include "src/sched/reactive.h"
#include "src/util/assert.h"
#include "src/util/rng.h"

namespace setlib::core {

namespace {

/// The search's adversary axis: every registry family, then every
/// reactive kind — a fixed order so trial -> adversary is index-pure.
struct AdversarySpec {
  bool reactive = false;
  sched::FamilyKind family = sched::FamilyKind::kUniform;
  sched::ReactiveKind rkind = sched::ReactiveKind::kWindowStretcher;
  const char* name = "";
};

const std::vector<AdversarySpec>& adversary_space() {
  static const std::vector<AdversarySpec> space = [] {
    std::vector<AdversarySpec> out;
    for (const sched::FamilyInfo& info : sched::schedule_families()) {
      AdversarySpec spec;
      spec.reactive = false;
      spec.family = info.kind;
      spec.name = info.name;
      out.push_back(spec);
    }
    for (const sched::ReactiveInfo& info : sched::reactive_adversaries()) {
      AdversarySpec spec;
      spec.reactive = true;
      spec.rkind = info.kind;
      spec.name = info.name;
      out.push_back(spec);
    }
    return out;
  }();
  return space;
}

/// All scored cells: 1 <= i < j <= n. (i == j is the asynchronous
/// system: the P == Q pair always has bound 1, so nothing can regress.)
std::vector<std::pair<int, int>> cell_space(int n) {
  std::vector<std::pair<int, int>> cells;
  for (int i = 1; i < n; ++i) {
    for (int j = i + 1; j <= n; ++j) cells.emplace_back(i, j);
  }
  return cells;
}

sched::FamilyParams baseline_params(int n, std::int64_t len) {
  sched::FamilyParams params;
  params.n = n;
  params.crash_count = std::min(1, n - 1);
  params.crash_horizon = std::max<std::int64_t>(1, len / 2);
  params.gst = std::max<std::int64_t>(1, len / 4);
  return params;
}

/// Deterministic trial schedule: a pure function of (adversary, n,
/// len, trial_seed). Parameters jitter from a seed-derived stream so
/// the search actually explores the params axis.
sched::Schedule generate_trial(const AdversarySpec& adv, int n,
                               std::int64_t len, std::uint64_t trial_seed) {
  Rng jitter(derive_cell_seed(trial_seed, 0));
  const std::uint64_t gen_seed = derive_cell_seed(trial_seed, 1);
  if (!adv.reactive) {
    sched::FamilyParams params = baseline_params(n, len);
    params.scale = std::int64_t{1} << jitter.next_in(3, 9);  // 8..512
    params.crash_count =
        n >= 2 ? static_cast<int>(jitter.next_in(1, n - 1)) : 0;
    auto gen = sched::make_family(adv.family, params, gen_seed);
    return sched::generate(*gen, len);
  }
  sched::ReactiveParams params;
  params.n = n;
  params.stretch = std::int64_t{1} << jitter.next_in(3, 9);
  params.victims = static_cast<int>(jitter.next_in(0, n - 1));  // 0 = auto
  params.crash_budget =
      n >= 2 ? static_cast<int>(jitter.next_in(1, n - 1)) : 0;
  auto gen = sched::make_reactive(adv.rkind, params, gen_seed);
  return sched::generate_observed(*gen, len);
}

/// Best-pair verdicts for every cell of one schedule.
std::vector<sched::TimelyPair> score_all_cells(
    const sched::Schedule& s, const std::vector<std::pair<int, int>>& cells) {
  const sched::PackedSchedule packed(s);
  std::vector<sched::TimelyPair> out;
  out.reserve(cells.size());
  for (const auto& [i, j] : cells) {
    out.push_back(sched::RankedPairScan(packed, i, j).best_pair());
  }
  return out;
}

/// Best-pair bound of one schedule, re-packing into `scratch`: the
/// minimization loop evaluates hundreds of candidate schedules per
/// finding, and repack() recycles the packed word storage across all
/// of them instead of allocating a fresh PackedSchedule per eval.
std::int64_t packed_best_bound(sched::PackedSchedule& scratch,
                               const sched::Schedule& s, int i, int j) {
  if (s.empty()) return 1;
  scratch.repack(s);
  return sched::RankedPairScan(scratch, i, j).best_pair().bound;
}

std::int64_t packed_best_bound(const sched::Schedule& s, int i, int j) {
  sched::PackedSchedule scratch;
  return packed_best_bound(scratch, s, i, j);
}

/// Greedy minimization: the smallest schedule this eval budget finds
/// whose (i, j) best-pair bound still reaches `target`. Phase 1 binary
/// searches the shortest prefix (the bound is nondecreasing in prefix
/// length: longer prefixes only add windows). Phase 2 deletes blocks,
/// halving the block size; every candidate is re-verified with the
/// packed scan before it is accepted.
sched::Schedule minimize_schedule(sched::PackedSchedule& scratch,
                                  const sched::Schedule& s, int i, int j,
                                  std::int64_t target,
                                  std::int64_t max_evals) {
  std::int64_t evals = 0;
  std::int64_t lo = 1;
  std::int64_t hi = s.size();
  while (lo < hi && evals < max_evals) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    ++evals;
    if (packed_best_bound(scratch, s.slice(0, mid), i, j) >= target) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  sched::Schedule best = s.slice(0, hi);
  for (std::int64_t block = best.size() / 2; block >= 1 && evals < max_evals;
       block /= 2) {
    std::int64_t pos = 0;
    while (pos < best.size() && evals < max_evals) {
      const std::int64_t cut = std::min(pos + block, best.size());
      if (cut <= pos || best.size() - (cut - pos) < 1) break;
      const sched::Schedule cand =
          best.slice(0, pos).concat(best.slice(cut, best.size()));
      ++evals;
      if (packed_best_bound(scratch, cand, i, j) >= target) {
        best = cand;  // keep pos: the next block slides into place
      } else {
        pos += block;
      }
    }
  }
  return best;
}

/// Enumerates every n-bit mask with exactly k bits set (k >= 1), in
/// increasing numeric order, via the shared colex successor.
template <typename Fn>
void for_each_popcount_mask(int n, int k, Fn&& fn) {
  SETLIB_EXPECTS(k >= 1 && k <= n);
  const std::uint64_t limit = std::uint64_t{1} << n;
  for (ProcSet s = ProcSet::range(0, k); s.mask() < limit;
       s = next_colex(s)) {
    fn(s.mask());
  }
}

/// Exhaustive reference best-pair bound: the executable-spec analyzer
/// over every (|P| = i, |Q| = j) pair. Mirrors RankedPairScan's pair
/// space exactly; kept independent of the packed word tricks so corpus
/// verification catches drift in either implementation. The pair space
/// is C(n, i) * C(n, j) reference scans, so the supported n is capped
/// at kMaxFuzzN — the worst n = 10 cell is ~63k scans, still fast on
/// minimized schedules, where n = 16 would be billions.
std::int64_t reference_best_bound(const sched::Schedule& s, int i, int j) {
  const int n = s.n();
  SETLIB_EXPECTS(n <= kMaxFuzzN);
  std::int64_t best = -1;
  for_each_popcount_mask(n, i, [&](std::uint64_t p_mask) {
    const ProcSet p(p_mask);
    for_each_popcount_mask(n, j, [&](std::uint64_t q_mask) {
      const std::int64_t bound =
          sched::min_timeliness_bound_reference(s, p, ProcSet(q_mask));
      if (best < 0 || bound < best) best = bound;
    });
  });
  SETLIB_ASSERT(best >= 1);
  return best;
}

std::uint64_t parse_hash_hex(const std::string& text) {
  if (text.size() != 16 ||
      text.find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw std::runtime_error("corpus: malformed hash \"" + text + "\"");
  }
  return std::strtoull(text.c_str(), nullptr, 16);
}

std::vector<Pid> parse_pid_array(const JsonValue& value) {
  std::vector<Pid> out;
  out.reserve(value.items().size());
  for (const JsonValue& item : value.items()) {
    out.push_back(static_cast<Pid>(item.as_int()));
  }
  return out;
}

}  // namespace

FuzzResult fuzz_schedules(ExperimentRunner& runner,
                          const FuzzOptions& options,
                          const std::vector<CorpusEntry>& known) {
  SETLIB_EXPECTS(options.n >= 2 && options.n <= kMaxFuzzN);
  SETLIB_EXPECTS(options.budget >= 0);
  SETLIB_EXPECTS(options.schedule_len >= 1);
  SETLIB_EXPECTS(options.baseline_seeds >= 1);
  const int n = options.n;
  const std::int64_t len = options.schedule_len;
  const auto cells = cell_space(n);
  const auto& advs = adversary_space();
  const std::size_t family_count = sched::schedule_families().size();

  // Phase 1 — registry baselines: every oblivious family at registry
  // parameters, `baseline_seeds` seeds each; a cell's best-known bound
  // starts at the max over them (the strongest schedule any registered
  // family is known to produce), raised further by known corpus
  // entries for this (n, len)-independent cell space.
  const std::size_t baseline_tasks =
      family_count * static_cast<std::size_t>(options.baseline_seeds);
  const auto baseline_scores = runner.map<std::vector<sched::TimelyPair>>(
      baseline_tasks, [&](std::size_t task) {
        const auto& info = sched::schedule_families()[task % family_count];
        const std::uint64_t seed = derive_cell_seed(
            options.seed, 0x10000 + static_cast<std::uint64_t>(task));
        auto gen =
            sched::make_family(info.kind, baseline_params(n, len), seed);
        return score_all_cells(sched::generate(*gen, len), cells);
      });

  std::vector<std::int64_t> best_known(cells.size(), 1);
  std::vector<std::int64_t> baseline(cells.size(), 1);
  for (const auto& scores : baseline_scores) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      baseline[c] = std::max(baseline[c], scores[c].bound);
    }
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    best_known[c] = baseline[c];
  }
  for (const CorpusEntry& entry : known) {
    if (entry.n != n) continue;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].first == entry.i && cells[c].second == entry.j) {
        best_known[c] = std::max(best_known[c], entry.bound);
      }
    }
  }

  // Phase 2 — trials, scored in parallel. A trial's schedule is a pure
  // function of its global index, so the map is deterministic at any
  // thread count.
  const auto trial_scores = runner.map<std::vector<sched::TimelyPair>>(
      static_cast<std::size_t>(options.budget), [&](std::size_t trial) {
        const auto& adv = advs[trial % advs.size()];
        const std::uint64_t trial_seed =
            derive_cell_seed(options.seed, static_cast<std::uint64_t>(trial));
        return score_all_cells(generate_trial(adv, n, len, trial_seed),
                               cells);
      });

  // Phase 3 — admit findings sequentially, in trial order, so the
  // best-known frontier (and therefore the emitted corpus) does not
  // depend on completion order.
  FuzzResult result;
  result.trials = options.budget;
  // One packed instance for the whole admission phase: minimization
  // evals and the final verification all repack into it, so a finding
  // costs zero packed-storage churn after the first.
  sched::PackedSchedule scratch;
  for (std::size_t trial = 0; trial < trial_scores.size(); ++trial) {
    const auto& adv = advs[trial % advs.size()];
    const std::uint64_t trial_seed =
        derive_cell_seed(options.seed, static_cast<std::uint64_t>(trial));
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const sched::TimelyPair& scored = trial_scores[trial][c];
      if (scored.bound <= best_known[c]) continue;
      // Regression: rebuild the schedule (cheap, deterministic),
      // minimize it against the observed bound, then re-verify the
      // minimized artifact end to end.
      const sched::Schedule full = generate_trial(adv, n, len, trial_seed);
      const auto [i, j] = cells[c];
      sched::Schedule minimized = minimize_schedule(
          scratch, full, i, j, scored.bound, options.minimize_evals);
      scratch.repack(minimized);
      const sched::TimelyPair final_pair =
          sched::RankedPairScan(scratch, i, j).best_pair();
      SETLIB_ASSERT(final_pair.bound >= scored.bound);
      SETLIB_ASSERT(reference_best_bound(minimized, i, j) ==
                    final_pair.bound);
      CorpusEntry entry;
      entry.hash = sched::schedule_hash(minimized);
      entry.n = n;
      entry.i = i;
      entry.j = j;
      entry.bound = final_pair.bound;
      entry.baseline_bound = best_known[c];
      entry.adversary = adv.name;
      entry.trial_seed = trial_seed;
      entry.raw_len = len;
      entry.timely_set = final_pair.timely_set;
      entry.observed_set = final_pair.observed_set;
      entry.schedule = std::move(minimized);
      best_known[c] = entry.bound;
      result.findings.push_back(std::move(entry));
    }
  }

  result.cells.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    FuzzCell cell;
    cell.i = cells[c].first;
    cell.j = cells[c].second;
    cell.baseline = baseline[c];
    cell.best = best_known[c];
    result.cells.push_back(cell);
  }
  return result;
}

std::string corpus_entry_json(const CorpusEntry& entry) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": 1,\n";
  os << "  \"hash\": \"" << sched::hash_hex(entry.hash) << "\",\n";
  os << "  \"n\": " << entry.n << ",\n";
  os << "  \"i\": " << entry.i << ",\n";
  os << "  \"j\": " << entry.j << ",\n";
  os << "  \"bound\": " << entry.bound << ",\n";
  os << "  \"baseline_bound\": " << entry.baseline_bound << ",\n";
  os << "  \"adversary\": \"" << entry.adversary << "\",\n";
  os << "  \"trial_seed\": \"" << entry.trial_seed << "\",\n";
  os << "  \"raw_len\": " << entry.raw_len << ",\n";
  auto emit_set = [&os](const char* key, ProcSet s) {
    os << "  \"" << key << "\": [";
    bool first = true;
    s.for_each([&](Pid p) {
      os << (first ? "" : ", ") << p;
      first = false;
    });
    os << "],\n";
  };
  emit_set("timely_set", entry.timely_set);
  emit_set("observed_set", entry.observed_set);
  os << "  \"steps\": [";
  for (std::int64_t s = 0; s < entry.schedule.size(); ++s) {
    os << (s == 0 ? "" : ",") << entry.schedule[s];
  }
  os << "]\n";
  os << "}\n";
  return os.str();
}

CorpusEntry parse_corpus_entry(const JsonValue& doc) {
  if (doc.at("schema").as_int() != 1) {
    throw std::runtime_error("corpus: unsupported schema");
  }
  CorpusEntry entry;
  entry.hash = parse_hash_hex(doc.at("hash").as_string());
  entry.n = static_cast<int>(doc.at("n").as_int());
  entry.i = static_cast<int>(doc.at("i").as_int());
  entry.j = static_cast<int>(doc.at("j").as_int());
  entry.bound = doc.at("bound").as_int();
  entry.baseline_bound = doc.at("baseline_bound").as_int();
  entry.adversary = doc.at("adversary").as_string();
  entry.trial_seed =
      std::strtoull(doc.at("trial_seed").as_string().c_str(), nullptr, 10);
  entry.raw_len = doc.at("raw_len").as_int();
  entry.timely_set = ProcSet::from(parse_pid_array(doc.at("timely_set")));
  entry.observed_set =
      ProcSet::from(parse_pid_array(doc.at("observed_set")));
  entry.schedule =
      sched::Schedule(entry.n, parse_pid_array(doc.at("steps")));
  return entry;
}

CorpusVerdict verify_corpus_entry(const CorpusEntry& entry) {
  CorpusVerdict verdict;
  // Strictly i < j: the fuzzer's cell space never emits i == j (that
  // pair is trivially bound 1), so such an entry is hand-edited or
  // corrupted, not a replayable finding.
  if (entry.n < 2 || entry.n > kMaxFuzzN || entry.i < 1 ||
      entry.i >= entry.j || entry.j > entry.n) {
    verdict.detail = "malformed cell coordinates";
    return verdict;
  }
  const std::uint64_t hash = sched::schedule_hash(entry.schedule);
  if (hash != entry.hash) {
    verdict.detail = "replay hash drifted: recorded " +
                     sched::hash_hex(entry.hash) + ", recomputed " +
                     sched::hash_hex(hash);
    return verdict;
  }
  const std::int64_t packed_bound =
      packed_best_bound(entry.schedule, entry.i, entry.j);
  if (packed_bound != entry.bound) {
    verdict.detail =
        "packed analyzer bound drifted: recorded " +
        std::to_string(entry.bound) + ", recomputed " +
        std::to_string(packed_bound);
    return verdict;
  }
  const std::int64_t pair_bound = sched::min_timeliness_bound_reference(
      entry.schedule, entry.timely_set, entry.observed_set);
  if (pair_bound != entry.bound) {
    verdict.detail =
        "recorded witness pair no longer attains the bound: reference "
        "says " +
        std::to_string(pair_bound);
    return verdict;
  }
  const std::int64_t reference_bound =
      reference_best_bound(entry.schedule, entry.i, entry.j);
  if (reference_bound != entry.bound) {
    verdict.detail =
        "reference analyzer bound drifted: recorded " +
        std::to_string(entry.bound) + ", recomputed " +
        std::to_string(reference_bound);
    return verdict;
  }
  verdict.ok = true;
  verdict.detail = "ok";
  return verdict;
}

}  // namespace setlib::core
