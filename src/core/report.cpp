#include "src/core/report.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "src/sched/schedule.h"
#include "src/util/assert.h"
#include "src/util/table.h"

namespace setlib::core {

std::string ShardSpec::to_string() const {
  return std::to_string(lo) + ".." + std::to_string(hi) + "/" +
         std::to_string(span);
}

std::pair<std::size_t, std::size_t> ShardSpec::range(
    std::size_t total) const {
  SETLIB_EXPECTS(valid());
  return {total * lo / span, total * hi / span};
}

namespace {

/// Strict digits-only parse of one LO/HI/SPAN number. strtol would
/// accept signs and whitespace, letting a malformed field slip past the
/// merge's gap/overlap detection; the 9-digit cap keeps total * hi in
/// ShardSpec::range far from overflow.
bool parse_digits(std::string_view text, std::size_t* out) {
  if (text.empty() || text.size() > 9) return false;
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

std::optional<ShardSpec> ShardSpec::parse(std::string_view text) {
  const std::size_t dots = text.find("..");
  if (dots == std::string_view::npos) return std::nullopt;
  const std::size_t slash = text.find('/', dots + 2);
  ShardSpec spec;
  spec.span = kLeaseSpan;
  const std::string_view hi = slash == std::string_view::npos
                                  ? text.substr(dots + 2)
                                  : text.substr(dots + 2, slash - dots - 2);
  if (!parse_digits(text.substr(0, dots), &spec.lo) ||
      !parse_digits(hi, &spec.hi) ||
      (slash != std::string_view::npos &&
       !parse_digits(text.substr(slash + 1), &spec.span)) ||
      !spec.valid()) {
    return std::nullopt;
  }
  return spec;
}

void ReportSink::begin_section(const std::string&, std::size_t,
                               const ShardSpec&) {}
void ReportSink::cell(const SweepCell&, const RunReport&, double) {}
void ReportSink::end_section(const SectionStats&) {}

void AggregateSink::cell(const SweepCell&, const RunReport& report,
                         double) {
  ++agg_.cells;
  if (report.success) ++agg_.successes;
  if (report.detector.abstract_ok) ++agg_.detector_ok;
  agg_.steps.add(static_cast<double>(report.steps_executed));
  agg_.witness_bound.add(static_cast<double>(report.witness_bound));
  agg_.distinct_decisions.add(
      static_cast<double>(report.distinct_decisions));
}

void AggregateSink::end_section(const SectionStats& stats) {
  agg_.wall_seconds += stats.wall_seconds;
  agg_.runs_per_second =
      agg_.wall_seconds > 0.0
          ? static_cast<double>(agg_.cells) / agg_.wall_seconds
          : 0.0;
}

void CollectSink::cell(const SweepCell& cell, const RunReport& report,
                       double) {
  cells_.push_back(cell);
  reports_.push_back(report);
}

void TableSink::cell(const SweepCell& cell, const RunReport& report,
                     double) {
  const RunConfig& config = cell.config;
  std::string key = config.spec.to_string();
  key.append(" / ").append(family_name(config.family));
  auto [it, inserted] = index_of_.try_emplace(key, groups_.size());
  if (inserted) groups_.emplace_back(key, Group{});
  Group& g = groups_[it->second].second;
  ++g.cells;
  if (report.success) ++g.successes;
  if (report.detector.abstract_ok) ++g.detector_ok;
  g.steps.add(static_cast<double>(report.steps_executed));
}

std::string TableSink::render() const {
  TextTable table({"spec / family", "cells", "success rate",
                   "detector ok", "mean steps", "p90 steps"});
  for (const auto& [key, g] : groups_) {
    const double rate =
        g.cells == 0 ? 0.0
                     : static_cast<double>(g.successes) /
                           static_cast<double>(g.cells);
    table.row()
        .cell(key)
        .cell(g.cells)
        .cell(rate)
        .cell(g.detector_ok)
        .cell(g.steps.empty() ? 0.0 : g.steps.mean())
        .cell(g.steps.empty() ? 0.0 : g.steps.percentile(90.0));
  }
  return table.render();
}

namespace {

/// The multi-seed dispersion facts over one group of rows — a whole
/// section, or one grid point's `--repeat` rows: mean / sample-based
/// stddev surrogate (Summary::stddev), 95% Student-t CI of the mean,
/// and the success rate with its proportion CI. Returned as
/// (key, value) pairs in emission order; NaN (rendered null) when the
/// group is empty. Shared by JsonSink emission and merge_section
/// recomputation, so the two cannot drift apart — that textual
/// identity is what keeps orchestrated merges bit-identical to
/// unsharded runs.
std::vector<std::pair<std::string, double>> dispersion_stats(
    const Summary& steps, const Summary& witness, std::size_t successes,
    std::size_t rows) {
  const double empty = std::numeric_limits<double>::quiet_NaN();
  auto mean_of = [&empty](const Summary& s) {
    return s.empty() ? empty : s.mean();
  };
  auto stddev_of = [&empty](const Summary& s) {
    return s.empty() ? empty : s.stddev();
  };
  auto ci_lo = [&empty](const Summary& s) {
    return s.empty() ? empty : s.mean() - ci95_halfwidth(s);
  };
  auto ci_hi = [&empty](const Summary& s) {
    return s.empty() ? empty : s.mean() + ci95_halfwidth(s);
  };
  const double rate = rows == 0 ? empty
                                : static_cast<double>(successes) /
                                      static_cast<double>(rows);
  std::vector<std::pair<std::string, double>> out;
  out.emplace_back("steps_mean", mean_of(steps));
  out.emplace_back("steps_stddev", stddev_of(steps));
  out.emplace_back("ci_steps_low", ci_lo(steps));
  out.emplace_back("ci_steps_high", ci_hi(steps));
  out.emplace_back("witness_bound_mean", mean_of(witness));
  out.emplace_back("witness_bound_stddev", stddev_of(witness));
  out.emplace_back("ci_witness_bound_low", ci_lo(witness));
  out.emplace_back("ci_witness_bound_high", ci_hi(witness));
  out.emplace_back("success_rate", rate);
  out.emplace_back("ci_success_low",
                   rows == 0 ? empty
                             : rate - ci95_proportion_halfwidth(rate, rows));
  out.emplace_back("ci_success_high",
                   rows == 0 ? empty
                             : rate + ci95_proportion_halfwidth(rate, rows));
  return out;
}

/// One grid point's rows: global cell index / repeat factor.
struct PointGroup {
  std::int64_t point = 0;
  std::size_t cells = 0;
  std::size_t successes = 0;
  Summary steps;
  Summary witness;
};

}  // namespace

JsonSink::JsonSink(Config config) : config_(std::move(config)) {}

void JsonSink::begin_section(const std::string& name, std::size_t,
                             const ShardSpec&) {
  SETLIB_EXPECTS(!streaming_);  // runner sections never nest
  streaming_ = true;
  pending_ = Section{};
  pending_.name = name;
  pending_.from_grid = true;
}

void JsonSink::cell(const SweepCell& cell, const RunReport& report,
                    double) {
  SETLIB_EXPECTS(streaming_);
  CellRow row;
  row.index = cell.index;
  row.success = report.success;
  row.detector_ok = report.detector.abstract_ok;
  row.distinct_decisions = report.distinct_decisions;
  row.steps = report.steps_executed;
  row.witness_bound = report.witness_bound;
  row.schedule_hash = report.schedule_hash;
  row.allocs_per_op = report.allocs_per_op;
  row.bytes_per_op = report.bytes_per_op;
  pending_.rows.push_back(row);
}

void JsonSink::end_section(const SectionStats& stats) {
  SETLIB_EXPECTS(streaming_);
  streaming_ = false;
  pending_.cells = stats.cells;
  pending_.wall_seconds = stats.wall_seconds;
  std::size_t successes = 0;
  std::size_t detector_ok = 0;
  Summary witness;
  Summary allocs;
  Summary bytes;
  for (const CellRow& row : pending_.rows) {
    if (row.success) ++successes;
    if (row.detector_ok) ++detector_ok;
    witness.add(static_cast<double>(row.witness_bound));
    allocs.add(static_cast<double>(row.allocs_per_op));
    bytes.add(static_cast<double>(row.bytes_per_op));
  }
  // Percentile keys are emitted unconditionally — an empty shard's
  // section must be schema-identical to a populated one, or naive
  // document merging produces asymmetric sections. json_number turns
  // the NaN placeholder into null on render.
  const double empty = std::numeric_limits<double>::quiet_NaN();
  auto pct = [&empty](const Summary& s, double q) {
    return s.empty() ? empty : s.percentile(q);
  };
  auto& extra = pending_.extra;
  extra.emplace_back("grid_cells",
                     static_cast<double>(stats.grid_cells));
  extra.emplace_back("successes", static_cast<double>(successes));
  extra.emplace_back("detector_ok", static_cast<double>(detector_ok));
  extra.emplace_back("steps_p50", pct(stats.steps, 50.0));
  extra.emplace_back("steps_p90", pct(stats.steps, 90.0));
  extra.emplace_back("steps_p99", pct(stats.steps, 99.0));
  extra.emplace_back("witness_bound_p90", pct(witness, 90.0));
  // Worst-case allocation account over the section's rows: 0 here is
  // the "steady-state cells allocate nothing" claim, checkable per
  // artifact. Deterministic (pure function of the rows), recomputed
  // from union rows on merge like the percentiles.
  extra.emplace_back("allocs_per_op_max", allocs.empty() ? empty : allocs.max());
  extra.emplace_back("bytes_per_op_max", bytes.empty() ? empty : bytes.max());
  // Multi-seed dispersion pooled across the section's rows; the
  // per-point breakdown (one group per grid point, across its
  // --repeat seeds) is rendered as the point_stats array. Both are
  // pure functions of the rows, so merge_shard_docs recomputes them
  // from the union rows with the same dispersion_stats arithmetic and
  // merged documents stay bit-identical to unsharded ones.
  for (const auto& fact : dispersion_stats(
           stats.steps, witness, successes, pending_.rows.size())) {
    extra.push_back(fact);
  }
  SETLIB_EXPECTS(stats.repeats >= 1);
  pending_.repeat_factor = stats.repeats;
  // Per-cell wall latency percentiles: the only non-deterministic
  // section facts besides wall_seconds/runs_per_sec (keys prefixed
  // cell_seconds_ so determinism diffs can strip them).
  extra.emplace_back("cell_seconds_p50", pct(stats.cell_seconds, 50.0));
  extra.emplace_back("cell_seconds_p90", pct(stats.cell_seconds, 90.0));
  extra.emplace_back("cell_seconds_p99", pct(stats.cell_seconds, 99.0));
  sections_.push_back(std::move(pending_));
  pending_ = Section{};
}

void JsonSink::section(
    const std::string& name, std::size_t cells, double wall_seconds,
    std::vector<std::pair<std::string, double>> extra) {
  Section s;
  s.name = name;
  s.cells = cells;
  s.wall_seconds = wall_seconds;
  s.extra = std::move(extra);
  sections_.push_back(std::move(s));
}

void JsonSink::annotate(const std::string& key, double value,
                        MergeRule rule) {
  SETLIB_EXPECTS(!sections_.empty());
  sections_.back().extra.emplace_back(key, value);
  if (rule == MergeRule::kSame) {
    sections_.back().same_keys.push_back(key);
  }
}

std::string JsonSink::render() const {
  std::size_t total_cells = 0;
  double total_wall = 0.0;
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": " << json_quote(config_.name) << ",\n";
  os << "  \"threads\": " << config_.threads << ",\n";
  os << "  \"repeat\": " << config_.repeat << ",\n";
  os << "  \"shard\": " << json_quote(config_.shard.to_string())
     << ",\n";
  os << "  \"sections\": [\n";
  for (std::size_t s = 0; s < sections_.size(); ++s) {
    const Section& sec = sections_[s];
    total_cells += sec.cells;
    total_wall += sec.wall_seconds;
    const double rate =
        sec.wall_seconds > 0.0
            ? static_cast<double>(sec.cells) / sec.wall_seconds
            : 0.0;
    os << "    {\"name\": " << json_quote(sec.name)
       << ", \"cells\": " << sec.cells
       << ", \"wall_seconds\": " << json_number(sec.wall_seconds)
       << ", \"runs_per_sec\": " << json_number(rate);
    if (!sec.same_keys.empty()) {
      os << ", \"same_keys\": [";
      for (std::size_t k = 0; k < sec.same_keys.size(); ++k) {
        os << (k == 0 ? "" : ", ") << json_quote(sec.same_keys[k]);
      }
      os << "]";
    }
    for (const auto& [key, value] : sec.extra) {
      os << ", " << json_quote(key) << ": " << json_number(value);
    }
    if (sec.from_grid) {
      // Per-point multi-seed statistics: rows grouped by grid point
      // (global index / repeat_factor), each group carrying the same
      // dispersion keys as the pooled section scalars. Rows within a
      // shard are contiguous ascending indices, so one linear pass
      // groups them.
      os << ", \"repeat_factor\": " << sec.repeat_factor;
      os << ", \"point_stats\": [";
      std::size_t r = 0;
      bool first_group = true;
      while (r < sec.rows.size()) {
        PointGroup group;
        group.point = static_cast<std::int64_t>(sec.rows[r].index) /
                      sec.repeat_factor;
        while (r < sec.rows.size() &&
               static_cast<std::int64_t>(sec.rows[r].index) /
                       sec.repeat_factor ==
                   group.point) {
          const CellRow& row = sec.rows[r];
          ++group.cells;
          if (row.success) ++group.successes;
          group.steps.add(static_cast<double>(row.steps));
          group.witness.add(static_cast<double>(row.witness_bound));
          ++r;
        }
        os << (first_group ? "" : ", ") << "{\"point\": " << group.point
           << ", \"cells\": " << group.cells;
        for (const auto& [key, value] :
             dispersion_stats(group.steps, group.witness,
                              group.successes, group.cells)) {
          os << ", " << json_quote(key) << ": " << json_number(value);
        }
        os << "}";
        first_group = false;
      }
      os << "]";
      os << ", \"rows\": [";
      for (std::size_t row_idx = 0; row_idx < sec.rows.size();
           ++row_idx) {
        const CellRow& row = sec.rows[row_idx];
        os << (row_idx == 0 ? "" : ", ") << "{\"index\": " << row.index
           << ", \"success\": " << (row.success ? 1 : 0)
           << ", \"detector_ok\": " << (row.detector_ok ? 1 : 0)
           << ", \"distinct\": " << row.distinct_decisions
           << ", \"steps\": " << row.steps
           << ", \"witness_bound\": " << row.witness_bound
           << ", \"schedule_hash\": "
           << json_quote(sched::hash_hex(row.schedule_hash))
           << ", \"allocs_per_op\": " << row.allocs_per_op
           << ", \"bytes_per_op\": " << row.bytes_per_op << "}";
      }
      os << "]";
    }
    os << "}" << (s + 1 < sections_.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  const double total_rate =
      total_wall > 0.0 ? static_cast<double>(total_cells) / total_wall
                       : 0.0;
  os << "  \"total_cells\": " << total_cells << ",\n";
  os << "  \"total_wall_seconds\": " << json_number(total_wall) << ",\n";
  os << "  \"runs_per_sec\": " << json_number(total_rate) << "\n";
  os << "}\n";
  return os.str();
}

void JsonSink::write_if_requested() const {
  if (!config_.enabled) return;
  std::ofstream file(config_.path);
  SETLIB_EXPECTS(file.good());
  file << render();
  std::cout << "wrote " << config_.path << "\n";
}

// ---------------------------------------------------------------------
// Shard-document merging.

bool is_timing_key(const std::string& key) {
  return key == "runs_per_sec" || key == "orchestration" ||
         key.find("wall") != std::string::npos ||
         key.find("seconds") != std::string::npos ||
         key.find("speedup") != std::string::npos;
}

JsonValue strip_timing_keys(const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kObject: {
      JsonValue out = JsonValue::object();
      for (const auto& [key, member] : value.members()) {
        if (is_timing_key(key)) continue;
        out.set(key, strip_timing_keys(member));
      }
      return out;
    }
    case JsonValue::Kind::kArray: {
      std::vector<JsonValue> items;
      items.reserve(value.items().size());
      for (const JsonValue& item : value.items()) {
        items.push_back(strip_timing_keys(item));
      }
      return JsonValue::array(std::move(items));
    }
    default:
      return value;
  }
}

namespace {

JsonValue sort_keys(const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kObject: {
      std::vector<JsonValue::Member> members;
      members.reserve(value.members().size());
      for (const auto& [key, member] : value.members()) {
        members.emplace_back(key, sort_keys(member));
      }
      std::sort(members.begin(), members.end(),
                [](const JsonValue::Member& a, const JsonValue::Member& b) {
                  return a.first < b.first;
                });
      return JsonValue::object(std::move(members));
    }
    case JsonValue::Kind::kArray: {
      std::vector<JsonValue> items;
      items.reserve(value.items().size());
      for (const JsonValue& item : value.items()) {
        items.push_back(sort_keys(item));
      }
      return JsonValue::array(std::move(items));
    }
    default:
      return value;
  }
}

bool is_cell_seconds_key(const std::string& key) {
  return key.rfind("cell_seconds_", 0) == 0;
}

/// Keys a grid section derives from its rows; recomputed on merge.
/// The ci_* / *_mean / *_stddev / success_rate dispersion keys are in
/// this set on purpose: none of them contains a timing substring, but
/// even one that did would be recomputed here before is_timing_key is
/// ever consulted (grid stats are checked first in merge_section).
bool is_grid_stat_key(const std::string& key) {
  return key == "grid_cells" || key == "successes" ||
         key == "detector_ok" || key == "steps_p50" ||
         key == "steps_p90" || key == "steps_p99" ||
         key == "witness_bound_p90" || key == "allocs_per_op_max" ||
         key == "bytes_per_op_max" || key == "steps_mean" ||
         key == "steps_stddev" || key == "witness_bound_mean" ||
         key == "witness_bound_stddev" || key == "success_rate" ||
         key == "repeat_factor" || key == "point_stats" ||
         key.rfind("ci_", 0) == 0 || is_cell_seconds_key(key);
}

/// The section skeleton every JsonSink section shares.
bool is_section_frame_key(const std::string& key) {
  return key == "name" || key == "cells" || key == "wall_seconds" ||
         key == "runs_per_sec" || key == "same_keys" || key == "rows";
}

std::size_t require_count(const JsonValue& section,
                          const std::string& name,
                          const std::string& key) {
  const std::int64_t value = section.at(key).as_int();
  if (value < 0) {
    throw MergeError("section \"" + name + "\": negative " + key);
  }
  return static_cast<std::size_t>(value);
}

JsonValue merge_section(const std::vector<const JsonValue*>& parts) {
  const std::string& name = parts[0]->at("name").as_string();
  const bool grid = parts[0]->find("rows") != nullptr;
  for (const JsonValue* part : parts) {
    if (part->at("name").as_string() != name) {
      throw MergeError("shard documents disagree on the section "
                       "sequence: \"" +
                       name + "\" vs \"" + part->at("name").as_string() +
                       "\"");
    }
    if ((part->find("rows") != nullptr) != grid) {
      throw MergeError("section \"" + name +
                       "\": grid in some shards, hand-fed in others");
    }
  }

  std::size_t cells = 0;
  double wall = 0.0;
  for (const JsonValue* part : parts) {
    cells += require_count(*part, name, "cells");
    const JsonValue& w = part->at("wall_seconds");
    if (w.is_number()) wall += w.as_double();
  }

  JsonValue out = JsonValue::object();
  out.set("name", JsonValue::of(name));
  out.set("cells", JsonValue::of(cells));
  out.set("wall_seconds", JsonValue::of(wall));
  out.set("runs_per_sec",
          JsonValue::of(wall > 0.0 ? static_cast<double>(cells) / wall
                                   : 0.0));

  // same_keys is part of the schema: every shard must carry the same
  // list, and it travels into the merged document.
  const JsonValue* same_list = parts[0]->find("same_keys");
  for (const JsonValue* part : parts) {
    const JsonValue* other = part->find("same_keys");
    const bool equal = (same_list == nullptr && other == nullptr) ||
                       (same_list != nullptr && other != nullptr &&
                        *same_list == *other);
    if (!equal) {
      throw MergeError("section \"" + name +
                       "\": shards disagree on same_keys");
    }
  }
  std::vector<std::string> same_keys;
  if (same_list != nullptr) {
    out.set("same_keys", *same_list);
    for (const JsonValue& key : same_list->items()) {
      same_keys.push_back(key.as_string());
    }
  }

  std::vector<JsonValue> rows;
  if (grid) {
    const JsonValue& grid_cells = parts[0]->at("grid_cells");
    std::int64_t last_index = -1;
    for (const JsonValue* part : parts) {
      if (!(part->at("grid_cells") == grid_cells)) {
        throw MergeError("section \"" + name +
                         "\": shards disagree on grid_cells");
      }
      const auto& part_rows = part->at("rows").items();
      if (part_rows.size() != require_count(*part, name, "cells")) {
        throw MergeError("section \"" + name +
                         "\": cells does not match the rows array");
      }
      for (const JsonValue& row : part_rows) {
        const std::int64_t index = row.at("index").as_int();
        if (index <= last_index) {
          throw MergeError(
              "section \"" + name +
              "\": global row indices are not strictly increasing "
              "across shards (shards missing, duplicated, or out of "
              "order)");
        }
        last_index = index;
        rows.push_back(row);
      }
    }

    // Recompute every rows-derived fact with the same arithmetic the
    // unsharded run uses; per-cell latency percentiles are wall-clock
    // facts of runs that no longer exist, so they merge to null.
    std::size_t successes = 0;
    std::size_t detector_ok = 0;
    Summary steps;
    Summary witness;
    Summary allocs;
    Summary bytes;
    for (const JsonValue& row : rows) {
      if (row.at("success").as_int() != 0) ++successes;
      if (row.at("detector_ok").as_int() != 0) ++detector_ok;
      steps.add(row.at("steps").as_double());
      witness.add(row.at("witness_bound").as_double());
      allocs.add(row.at("allocs_per_op").as_double());
      bytes.add(row.at("bytes_per_op").as_double());
    }
    const double empty = std::numeric_limits<double>::quiet_NaN();
    auto pct = [&empty](const Summary& s, double q) {
      return s.empty() ? empty : s.percentile(q);
    };
    out.set("grid_cells", grid_cells);
    out.set("successes", JsonValue::of(static_cast<double>(successes)));
    out.set("detector_ok",
            JsonValue::of(static_cast<double>(detector_ok)));
    out.set("steps_p50", JsonValue::of(pct(steps, 50.0)));
    out.set("steps_p90", JsonValue::of(pct(steps, 90.0)));
    out.set("steps_p99", JsonValue::of(pct(steps, 99.0)));
    out.set("witness_bound_p90", JsonValue::of(pct(witness, 90.0)));
    out.set("allocs_per_op_max",
            JsonValue::of(allocs.empty() ? empty : allocs.max()));
    out.set("bytes_per_op_max",
            JsonValue::of(bytes.empty() ? empty : bytes.max()));
    // The multi-seed dispersion keys — pooled scalars and the
    // per-point breakdown — recomputed from the union rows in shard
    // (= cell) order through the same dispersion_stats helper the
    // JsonSink emits with, so the merged values are bit-identical to
    // the unsharded run's.
    for (const auto& [key, value] :
         dispersion_stats(steps, witness, successes, rows.size())) {
      out.set(key, JsonValue::of(value));
    }
    const JsonValue& repeat_factor = parts[0]->at("repeat_factor");
    for (const JsonValue* part : parts) {
      if (!(part->at("repeat_factor") == repeat_factor)) {
        throw MergeError("section \"" + name +
                         "\": shards disagree on repeat_factor");
      }
    }
    out.set("repeat_factor", repeat_factor);
    const std::int64_t rf = std::max<std::int64_t>(
        1, repeat_factor.as_int());
    std::vector<JsonValue> points;
    std::size_t r = 0;
    while (r < rows.size()) {
      PointGroup group;
      group.point = rows[r].at("index").as_int() / rf;
      while (r < rows.size() &&
             rows[r].at("index").as_int() / rf == group.point) {
        const JsonValue& row = rows[r];
        ++group.cells;
        if (row.at("success").as_int() != 0) ++group.successes;
        group.steps.add(row.at("steps").as_double());
        group.witness.add(row.at("witness_bound").as_double());
        ++r;
      }
      JsonValue obj = JsonValue::object();
      obj.set("point", JsonValue::of(group.point));
      obj.set("cells", JsonValue::of(group.cells));
      for (const auto& [key, value] :
           dispersion_stats(group.steps, group.witness, group.successes,
                            group.cells)) {
        obj.set(key, JsonValue::of(value));
      }
      points.push_back(std::move(obj));
    }
    out.set("point_stats", JsonValue::array(std::move(points)));
    out.set("cell_seconds_p50", JsonValue::null());
    out.set("cell_seconds_p90", JsonValue::null());
    out.set("cell_seconds_p99", JsonValue::null());
  }

  // Hand annotations: the union of extra keys across shards, in first
  // appearance order. Timing keys never merge; same_keys facts must
  // agree; everything else is a shard-local count and sums.
  std::vector<std::string> extra_keys;
  for (const JsonValue* part : parts) {
    for (const auto& [key, member] : part->members()) {
      if (is_section_frame_key(key)) continue;
      if (grid && is_grid_stat_key(key)) continue;
      if (std::find(extra_keys.begin(), extra_keys.end(), key) ==
          extra_keys.end()) {
        extra_keys.push_back(key);
      }
    }
  }
  for (const std::string& key : extra_keys) {
    if (is_timing_key(key)) continue;
    if (std::find(same_keys.begin(), same_keys.end(), key) !=
        same_keys.end()) {
      const JsonValue* agreed = nullptr;
      for (const JsonValue* part : parts) {
        const JsonValue* value = part->find(key);
        if (value == nullptr) continue;
        if (agreed == nullptr) {
          agreed = value;
        } else if (!(*agreed == *value)) {
          // Name the key and render both literals: a kSame mismatch
          // is a determinism bug somewhere upstream, and "a key
          // disagreed" is not actionable without the values.
          throw MergeError("section \"" + name + "\": shards disagree "
                           "on invariant key \"" +
                           key + "\": " + agreed->dump() + " vs " +
                           value->dump());
        }
      }
      out.set(key, *agreed);
    } else {
      double sum = 0.0;
      for (const JsonValue* part : parts) {
        const JsonValue* value = part->find(key);
        if (value == nullptr) continue;
        if (!value->is_number()) {
          throw MergeError("section \"" + name + "\": cannot sum "
                           "non-numeric key \"" +
                           key + "\" (annotate it MergeRule::kSame?)");
        }
        sum += value->as_double();
      }
      out.set(key, JsonValue::of(sum));
    }
  }

  if (grid) out.set("rows", JsonValue::array(std::move(rows)));
  return out;
}

JsonValue merge_shard_docs_impl(const std::vector<JsonValue>& docs) {
  if (docs.empty()) {
    throw MergeError("merge_shard_docs: no shard documents given");
  }
  // Any document count is legal, in any completion order and with any
  // split history, as long as the ranges tile the virtual span exactly
  // once — a gap means a lost range, an overlap a double-counted one,
  // and both must fail loudly.
  std::vector<std::pair<ShardSpec, const JsonValue*>> ranges;
  ranges.reserve(docs.size());
  for (const JsonValue& doc : docs) {
    const std::string& field = doc.at("shard").as_string();
    const std::optional<ShardSpec> spec = ShardSpec::parse(field);
    if (!spec) {
      throw MergeError("shard field \"" + field +
                       "\" is not LO..HI/SPAN with 0 <= LO < HI <= SPAN");
    }
    if (!ranges.empty() && spec->span != ranges[0].first.span) {
      throw MergeError("shard documents disagree on the span: " +
                       std::to_string(ranges[0].first.span) + " vs " +
                       std::to_string(spec->span));
    }
    ranges.emplace_back(*spec, &doc);
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const auto& a, const auto& b) {
              return a.first.lo < b.first.lo;
            });
  const std::size_t span = ranges[0].first.span;
  std::size_t expect = 0;
  for (const auto& [spec, doc] : ranges) {
    if (spec.lo > expect) {
      throw MergeError("shard documents leave a gap: virtual cells " +
                       std::to_string(expect) + ".." +
                       std::to_string(spec.lo) + " are uncovered");
    }
    if (spec.lo < expect) {
      throw MergeError("shard documents overlap at virtual cell " +
                       std::to_string(spec.lo));
    }
    expect = spec.hi;
  }
  if (expect != span) {
    throw MergeError("shard documents leave a gap: virtual cells " +
                     std::to_string(expect) + ".." +
                     std::to_string(span) + " are uncovered");
  }

  const JsonValue& first = *ranges[0].second;
  for (const char* key : {"bench", "threads", "repeat"}) {
    for (const auto& [spec, doc] : ranges) {
      if (!(doc->at(key) == first.at(key))) {
        throw MergeError(std::string("shard documents disagree on \"") +
                         key + "\"");
      }
    }
  }

  const std::size_t section_count = first.at("sections").items().size();
  for (const auto& [spec, doc] : ranges) {
    if (doc->at("sections").items().size() != section_count) {
      throw MergeError("shard documents have different section counts");
    }
  }

  JsonValue merged = JsonValue::object();
  merged.set("bench", first.at("bench"));
  merged.set("threads", first.at("threads"));
  merged.set("repeat", first.at("repeat"));
  merged.set("shard", JsonValue::of(ShardSpec{}.to_string()));

  std::vector<JsonValue> sections;
  std::size_t total_cells = 0;
  double total_wall = 0.0;
  for (std::size_t s = 0; s < section_count; ++s) {
    std::vector<const JsonValue*> parts;
    parts.reserve(ranges.size());
    for (const auto& [spec, doc] : ranges) {
      parts.push_back(&doc->at("sections").items()[s]);
    }
    JsonValue section = merge_section(parts);
    total_cells += static_cast<std::size_t>(section.at("cells").as_int());
    total_wall += section.at("wall_seconds").as_double();
    sections.push_back(std::move(section));
  }
  merged.set("sections", JsonValue::array(std::move(sections)));
  merged.set("total_cells", JsonValue::of(total_cells));
  merged.set("total_wall_seconds", JsonValue::of(total_wall));
  merged.set("runs_per_sec",
             JsonValue::of(total_wall > 0.0
                               ? static_cast<double>(total_cells) /
                                     total_wall
                               : 0.0));
  return merged;
}

}  // namespace

std::string canonical_json(const JsonValue& value) {
  return sort_keys(value).dump();
}

JsonValue merge_shard_docs(const std::vector<JsonValue>& docs) {
  try {
    return merge_shard_docs_impl(docs);
  } catch (const JsonParseError& e) {
    // A structurally broken document (missing key, wrong type) is a
    // merge failure, not a parse failure of this layer's making.
    throw MergeError(std::string("malformed shard document: ") +
                     e.what());
  }
}

}  // namespace setlib::core
