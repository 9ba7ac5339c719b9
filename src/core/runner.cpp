#include "src/core/runner.h"

#include <algorithm>

#include "src/util/assert.h"

namespace setlib::core {

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : options_(std::move(options)), pool_(options_.threads) {
  SETLIB_EXPECTS(options_.shard.valid());
  if (options_.json_path.empty()) {
    options_.json_path = "BENCH_" + options_.name + ".json";
  }
  arenas_.reserve(static_cast<std::size_t>(pool_.threads()));
  for (int w = 0; w < pool_.threads(); ++w) {
    arenas_.push_back(std::make_unique<util::ArenaAllocator>());
  }
}

JsonSink ExperimentRunner::json_sink() const {
  JsonSink::Config config;
  config.name = options_.name;
  config.path = options_.json_path;
  config.enabled = options_.json;
  config.threads = pool_.threads();
  config.repeat = options_.repeat;
  config.shard = options_.shard;
  return JsonSink(config);
}

std::size_t ExperimentRunner::grain_for(std::size_t count) const {
  if (options_.grain != 0) return options_.grain;
  // Auto for generic loops: chunk so each worker sees ~16 pops on
  // huge index spaces, cutting steal/lock overhead on cheap cells.
  // (Grid runs of heavy run_agreement cells pin grain to 1 instead —
  // see run(grid, ...).)
  const std::size_t workers =
      static_cast<std::size_t>(std::max(1, pool_.threads()));
  return std::max<std::size_t>(1, count / (workers * 16));
}

SectionStats ExperimentRunner::run(const SweepGrid& grid,
                                   const std::string& name,
                                   const std::vector<ReportSink*>& sinks) {
  const std::size_t total = grid.size();
  const auto [begin, end] = shard_range(total);

  // Materialize this shard's cells on the submitting thread: cell
  // configs are pure functions of the global index, and the memoized
  // point cache is not written to concurrently this way.
  std::vector<SweepCell> cells;
  cells.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) cells.push_back(grid.cell(i));

  for (ReportSink* sink : sinks) {
    sink->begin_section(name, total, options_.shard);
  }

  std::vector<RunReport> reports(cells.size());
  std::vector<double> seconds(cells.size());
  const WallTimer timer;
  if (!cells.empty()) {
    try {
      // Grid cells are milliseconds-heavy run_agreement calls: unless
      // the caller asked for an explicit grain, single-index pops give
      // the best load balance (auto chunking is for cheap map loops).
      const std::size_t grain =
          options_.grain != 0 ? options_.grain : 1;
      pool_.for_each(
          cells.size(),
          [&](std::size_t i) {
            const WallTimer cell_timer;
            // Fresh arena state per cell: reset trims overflow blocks
            // back to the reserve, so the cell's counter deltas are a
            // pure function of its config (not of which worker ran it
            // or what ran before).
            util::ArenaAllocator& arena = worker_arena();
            arena.reset();
            reports[i] = run_agreement(cells[i].config, arena);
            seconds[i] = cell_timer.seconds();
          },
          grain);
    } catch (...) {
      // A throwing cell propagates, but sinks must not stay wedged in
      // a half-open section: close the section empty (no rows from a
      // failed sweep) before rethrowing.
      SectionStats stats;
      stats.name = name;
      stats.grid_cells = total;
      stats.cells = 0;
      stats.repeats = grid.repeats();
      stats.shard = options_.shard;
      stats.wall_seconds = timer.seconds();
      for (ReportSink* sink : sinks) sink->end_section(stats);
      throw;
    }
  }

  SectionStats stats;
  stats.name = name;
  stats.grid_cells = total;
  stats.cells = cells.size();
  stats.repeats = grid.repeats();
  stats.shard = options_.shard;
  stats.wall_seconds = timer.seconds();
  for (std::size_t i = 0; i < cells.size(); ++i) {  // cell order
    stats.cell_seconds.add(seconds[i]);
    for (ReportSink* sink : sinks) {
      sink->cell(cells[i], reports[i], seconds[i]);
    }
  }
  for (ReportSink* sink : sinks) sink->end_section(stats);
  return stats;
}

SectionStats ExperimentRunner::run(
    std::size_t n, const std::string& name,
    const std::function<void(std::size_t)>& fn) {
  const auto [begin, end] = shard_range(n);
  const std::size_t count = end - begin;
  const WallTimer timer;
  if (count > 0) {
    pool_.for_each(
        count, [&](std::size_t i) { fn(begin + i); }, grain_for(count));
  }
  SectionStats stats;
  stats.name = name;
  stats.grid_cells = n;
  stats.cells = count;
  stats.shard = options_.shard;
  stats.wall_seconds = timer.seconds();
  return stats;
}

}  // namespace setlib::core
