// EXP-ADV — the adversary-family frontier.
//
// The paper quantifies timeliness over every schedule the adversary
// can produce, so each randomized family (src/sched/families.h) is an
// experiment in its own right: which (i, j) pairs still admit a
// timely pair — i.e. for which systems S^i_{j,n} does the family keep
// producing member schedules — and how does the full agreement stack
// fare against it?
//
// Two sections, both shard-aware through the ExperimentRunner:
//
//   - family_grid: run_agreement for (2,2,5)-agreement in its matching
//     system against the friendly baseline, every randomized family,
//     and every reactive adversary (src/sched/reactive.h), `--repeat`
//     seeds per family. The grid section carries the multi-seed
//     dispersion keys (ci_* 95% intervals) in
//     BENCH_adversary_frontier.json.
//
//   - frontier_map: for every registry family plus every reactive
//     adversary (driven closed-loop via generate_observed) and every
//     1 <= i <= j <= n, generate a seeded schedule and find the best
//     achievable (|P| = i, |Q| = j) bound with the packed
//     RankedPairScan; a cell is a member when the bound stays within
//     the cap. Every cell
//     also re-checks its best pair against
//     min_timeliness_bound_reference, so the packed analyzer is
//     differentially pinned on every family's schedules; mismatches
//     are counted (and summed across shards) in the JSON, and any
//     mismatch makes the bench exit non-zero.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/report.h"
#include "src/core/runner.h"
#include "src/core/solvability.h"
#include "src/core/sweep.h"
#include "src/core/sweep_cli.h"
#include "src/sched/analyzer.h"
#include "src/sched/families.h"
#include "src/sched/reactive.h"
#include "src/util/arena.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace {

using namespace setlib;

void print_family_grid(core::ExperimentRunner& runner,
                       core::JsonSink& json) {
  core::SweepGrid grid;
  core::RunConfig proto;
  proto.max_steps = 250'000;
  grid.add_spec({2, 2, 5})
      .add_family(core::ScheduleFamily::kEnforcedRandom);
  for (const auto family : core::randomized_families()) {
    grid.add_family(family);
  }
  for (const auto family : core::reactive_families()) {
    grid.add_family(family);
  }
  grid.add_bound(3)
      .repeats(runner.options().repeat)
      .base_seed(47)
      .prototype(proto);

  core::TableSink table;
  core::AggregateSink agg;
  runner.run(grid, "family_grid", {&table, &agg, &json});
  const core::SweepAggregate& a = agg.aggregate();
  std::cout << "EXP-ADV: (2,2,5)-agreement in S^2_{3,5} vs the "
               "adversary families (repeat="
            << runner.options().repeat
            << ", threads=" << runner.pool().threads() << ")\n"
            << table.render();
  if (!a.steps.empty()) {
    std::cout << "  steps mean " << a.steps.mean() << " +/- "
              << ci95_halfwidth(a.steps) << ", witness bound mean "
              << a.witness_bound.mean() << " +/- "
              << ci95_halfwidth(a.witness_bound) << " (95% CI over "
              << a.cells << " cells)\n";
  }
  std::cout << "\n";
}

struct FrontierCell {
  std::size_t family = 0;  // index into the combined adversary list
  int i = 0;
  int j = 0;
  std::int64_t best_bound = 0;
  bool member = false;          // best_bound <= kBoundCap
  bool reference_match = true;  // packed == reference on the best pair
};

constexpr int kFrontierN = 5;
constexpr std::int64_t kFrontierLen = 20'000;
constexpr std::int64_t kBoundCap = 4;
constexpr std::uint64_t kFrontierSeed = 77;

/// JSON annotation token for a family ("crash-prone" -> "crash_prone").
std::string family_key(const std::string& name) {
  std::string key = name;
  std::replace(key.begin(), key.end(), '-', '_');
  return key;
}

// Returns the number of cells whose packed bound disagrees with the
// reference analyzer.
int print_frontier_map(core::ExperimentRunner& runner,
                       core::JsonSink& json) {
  // Combined adversary axis: the oblivious registry first, then the
  // reactive adversaries (reactive.h) driven in pure-generation mode
  // through generate_observed — the frontier quantifies over both.
  const auto& families = sched::schedule_families();
  const auto& reactives = sched::reactive_adversaries();
  std::vector<std::string> names;
  for (const auto& info : families) names.emplace_back(info.name);
  for (const auto& info : reactives) names.emplace_back(info.name);
  // Flat cell space: adversary-major, then (i, j) in row-major order.
  std::vector<std::pair<int, int>> pairs;
  for (int i = 1; i <= kFrontierN; ++i) {
    for (int j = i; j <= kFrontierN; ++j) pairs.emplace_back(i, j);
  }
  const std::size_t count = names.size() * pairs.size();

  core::WallTimer timer;
  const auto cells = runner.map<FrontierCell>(count, [&](std::size_t idx) {
    FrontierCell cell;
    cell.family = idx / pairs.size();
    cell.i = pairs[idx % pairs.size()].first;
    cell.j = pairs[idx % pairs.size()].second;
    const std::uint64_t seed =
        core::derive_cell_seed(kFrontierSeed, idx);
    sched::Schedule s(kFrontierN);
    if (cell.family < families.size()) {
      sched::FamilyParams params;
      params.n = kFrontierN;
      params.scale = 64;
      params.crash_count = 2;
      params.crash_horizon = kFrontierLen / 2;
      params.gst = kFrontierLen / 4;
      auto gen =
          sched::make_family(families[cell.family].kind, params, seed);
      s = sched::generate(*gen, kFrontierLen);
    } else {
      sched::ReactiveParams params;
      params.n = kFrontierN;
      params.stretch = 64;
      params.crash_budget = 2;
      // Aim the silencing at the cell: to starve an |P| = i set, at
      // least n - i + 1 victims guarantee some P member stays silent.
      params.victims =
          std::clamp(kFrontierN - cell.i + 1, 1, kFrontierN - 1);
      auto gen = sched::make_reactive(
          reactives[cell.family - families.size()].kind, params, seed);
      s = sched::generate_observed(*gen, kFrontierLen);
    }
    // Pack and scan on this worker's pool arena: the frame rewinds the
    // cell's footprint on exit, so long frontier maps stay within the
    // arena reserve instead of churning the heap per cell.
    util::ArenaAllocator& arena = runner.worker_arena();
    const util::FrameScope frame(arena);
    const sched::PackedSchedule packed(s, arena);
    const sched::TimelyPair best =
        sched::RankedPairScan(packed, cell.i, cell.j, &arena).best_pair();
    cell.best_bound = best.bound;
    cell.member = best.bound <= kBoundCap;
    cell.reference_match =
        sched::min_timeliness_bound_reference(
            s, best.timely_set, best.observed_set) == best.bound;
    return cell;
  });
  const double wall = timer.seconds();

  // Built by append: `const char* + std::string&&` chains trip the
  // GCC 12 -Wrestrict false positive (PR105651, see core/spec.h).
  std::string member_header = "member (cap ";
  member_header.append(std::to_string(kBoundCap)).append(")");
  TextTable table({"family", "(i,j)", "best bound", member_header});
  std::vector<double> members(names.size(), 0.0);
  int mismatches = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const FrontierCell& cell = cells[c];
    std::string pair_label = "(";
    pair_label.append(std::to_string(cell.i))
        .append(",")
        .append(std::to_string(cell.j))
        .append(")");
    table.row()
        .cell(names[cell.family])
        .cell(pair_label)
        .cell(cell.best_bound)
        .cell(cell.member ? "yes" : "no");
    members[cell.family] += cell.member ? 1.0 : 0.0;
    mismatches += cell.reference_match ? 0 : 1;
  }
  std::cout << "EXP-ADVb: which (i,j) bounds does each family keep? "
               "(n=" << kFrontierN << ", " << kFrontierLen
            << "-step prefixes, best pair per cell)\n"
            << table.render()
            << "  packed-vs-reference mismatches: " << mismatches
            << "\n\n";

  json.section("frontier_map", cells.size(), wall);
  for (std::size_t f = 0; f < names.size(); ++f) {
    json.annotate("members_" + family_key(names[f]), members[f]);
  }
  json.annotate("reference_mismatches", mismatches);
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  const auto options =
      core::parse_cli_or_exit(argc, argv, "adversary_frontier");
  core::ExperimentRunner runner(options);
  core::JsonSink json = runner.json_sink();
  print_family_grid(runner, json);
  const int mismatches = print_frontier_map(runner, json);
  if (!json.write_if_requested()) return 1;
  return mismatches == 0 ? 0 : 1;
}
