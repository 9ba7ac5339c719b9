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
  spec.span = kDefaultSpan;
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

/// Appends the multi-seed dispersion facts over one group of rows — a
/// whole section, or one grid point's `--repeat` rows: mean /
/// sample-based stddev surrogate (Summary::stddev), 95% Student-t CI
/// of the mean, and the success rate with its proportion CI. NaN
/// (rendered null) when the group is empty.
void add_dispersion(JsonValue& out, const Summary& steps,
                    const Summary& witness, std::size_t successes,
                    std::size_t rows) {
  const double empty = std::numeric_limits<double>::quiet_NaN();
  auto& members = out.members();
  auto put = [&members](std::string key, double value) {
    members.emplace_back(std::move(key), JsonValue::of(value));
  };
  for (const auto& [prefix, s] :
       {std::pair<std::string, const Summary*>{"steps", &steps},
        {"witness_bound", &witness}}) {
    const bool none = s->empty();
    const double half = none ? empty : ci95_halfwidth(*s);
    put(prefix + "_mean", none ? empty : s->mean());
    put(prefix + "_stddev", none ? empty : s->stddev());
    put("ci_" + prefix + "_low", none ? empty : s->mean() - half);
    put("ci_" + prefix + "_high", none ? empty : s->mean() + half);
  }
  const double rate = rows == 0 ? empty
                                : static_cast<double>(successes) /
                                      static_cast<double>(rows);
  const double half =
      rows == 0 ? empty : ci95_proportion_halfwidth(rate, rows);
  put("success_rate", rate);
  put("ci_success_low", rate - half);
  put("ci_success_high", rate + half);
}

/// Every rows-derived fact of a grid section, in emission order: the
/// pooled counts, percentiles and dispersion keys, then "point_stats"
/// (the dispersion keys per grid point, rows grouped by global index /
/// repeat_factor). JsonSink renders it and merge_shard_docs recomputes
/// it from the union rows, so a merged document is bit-identical to
/// the unsharded one by construction. Rows are in ascending index
/// order, so one linear pass groups them.
JsonValue grid_facts(const std::vector<GridRow>& rows, int repeat_factor) {
  SETLIB_EXPECTS(repeat_factor >= 1);
  const auto width = static_cast<std::size_t>(repeat_factor);
  std::size_t successes = 0;
  std::size_t detector_ok = 0;
  Summary steps;
  Summary witness;
  for (const GridRow& row : rows) {
    if (row.success) ++successes;
    if (row.detector_ok) ++detector_ok;
    steps.add(static_cast<double>(row.steps));
    witness.add(static_cast<double>(row.witness_bound));
  }
  const double empty = std::numeric_limits<double>::quiet_NaN();
  auto pct = [&empty](const Summary& s, double q) {
    return JsonValue::of(s.empty() ? empty : s.percentile(q));
  };
  JsonValue out = JsonValue::object({
      {"successes", JsonValue::of(successes)},
      {"detector_ok", JsonValue::of(detector_ok)},
      {"steps_p50", pct(steps, 50.0)},
      {"steps_p90", pct(steps, 90.0)},
      {"steps_p99", pct(steps, 99.0)},
      {"witness_bound_p90", pct(witness, 90.0)},
  });
  add_dispersion(out, steps, witness, successes, rows.size());

  std::vector<JsonValue> points;
  std::size_t r = 0;
  while (r < rows.size()) {
    const std::size_t point = rows[r].index / width;
    std::size_t cells = 0;
    std::size_t point_successes = 0;
    Summary point_steps;
    Summary point_witness;
    for (; r < rows.size() && rows[r].index / width == point; ++r) {
      ++cells;
      if (rows[r].success) ++point_successes;
      point_steps.add(static_cast<double>(rows[r].steps));
      point_witness.add(static_cast<double>(rows[r].witness_bound));
    }
    JsonValue group = JsonValue::object(
        {{"point", JsonValue::of(point)}, {"cells", JsonValue::of(cells)}});
    add_dispersion(group, point_steps, point_witness, point_successes,
                   cells);
    points.push_back(std::move(group));
  }
  out.members().emplace_back("point_stats",
                             JsonValue::array(std::move(points)));
  return out;
}

/// A section's "timing" object: wall_seconds and the runs_per_sec
/// derived from it, then any further wall-clock facts.
JsonValue section_timing(
    std::size_t cells, double wall_seconds,
    const std::vector<std::pair<std::string, double>>& more = {}) {
  JsonValue out = JsonValue::object(
      {{"wall_seconds", JsonValue::of(wall_seconds)},
       {"runs_per_sec",
        JsonValue::of(runs_per_wall_second(cells, wall_seconds))}});
  for (const auto& [key, value] : more) {
    out.members().emplace_back(key, JsonValue::of(value));
  }
  return out;
}

/// The document's top-level "timing" object.
JsonValue document_timing(std::size_t cells, double wall_seconds,
                          JsonValue threads) {
  return JsonValue::object(
      {{"total_wall_seconds", JsonValue::of(wall_seconds)},
       {"runs_per_sec",
        JsonValue::of(runs_per_wall_second(cells, wall_seconds))},
       {"threads", std::move(threads)}});
}

}  // namespace

JsonSink::JsonSink(Config config) : config_(std::move(config)) {}

void JsonSink::begin_section(const std::string& name,
                             std::size_t grid_cells, const ShardSpec&) {
  SETLIB_EXPECTS(!streaming_);  // runner sections never nest
  streaming_ = true;
  pending_ = Section{};
  pending_.name = name;
  pending_.from_grid = true;
  pending_.grid_cells = grid_cells;
}

void JsonSink::cell(const SweepCell& cell, const RunReport& report,
                    double) {
  SETLIB_EXPECTS(streaming_);
  GridRow row;
  row.index = cell.index;
  row.success = report.success;
  row.detector_ok = report.detector.abstract_ok;
  row.distinct_decisions = report.distinct_decisions;
  row.steps = report.steps_executed;
  row.witness_bound = report.witness_bound;
  row.schedule_hash = report.schedule_hash;
  pending_.rows.push_back(row);
}

void JsonSink::end_section(const SectionStats& stats) {
  SETLIB_EXPECTS(streaming_);
  SETLIB_EXPECTS(stats.repeats >= 1);
  streaming_ = false;
  pending_.cells = stats.cells;
  pending_.wall_seconds = stats.wall_seconds;
  pending_.repeat_factor = stats.repeats;
  const Summary& latency = stats.cell_seconds;
  auto pct = [&latency](double q) {
    return latency.empty() ? std::numeric_limits<double>::quiet_NaN()
                           : latency.percentile(q);
  };
  pending_.timing = {{"cell_seconds_p50", pct(50.0)},
                     {"cell_seconds_p90", pct(90.0)},
                     {"cell_seconds_p99", pct(99.0)}};
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
  Section& sec = sections_.back();
  if (rule == MergeRule::kTiming) {
    sec.timing.emplace_back(key, value);
    return;
  }
  sec.extra.emplace_back(key, value);
  if (rule == MergeRule::kSame) sec.same_keys.push_back(key);
}

std::string JsonSink::render() const {
  std::size_t total_cells = 0;
  double total_wall = 0.0;
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": " << json_quote(config_.name) << ",\n";
  os << "  \"repeat\": " << config_.repeat << ",\n";
  os << "  \"shard\": " << json_quote(config_.shard.to_string())
     << ",\n";
  os << "  \"sections\": [\n";
  for (std::size_t s = 0; s < sections_.size(); ++s) {
    const Section& sec = sections_[s];
    total_cells += sec.cells;
    total_wall += sec.wall_seconds;
    os << "    {\"name\": " << json_quote(sec.name)
       << ", \"cells\": " << sec.cells;
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
      os << ", \"grid_cells\": " << sec.grid_cells
         << ", \"repeat_factor\": " << sec.repeat_factor;
      const JsonValue facts = grid_facts(sec.rows, sec.repeat_factor);
      for (const auto& [key, value] : facts.members()) {
        os << ", " << json_quote(key) << ": " << value.dump();
      }
      os << ", \"rows\": [";
      for (std::size_t r = 0; r < sec.rows.size(); ++r) {
        const GridRow& row = sec.rows[r];
        os << (r == 0 ? "" : ", ") << "{\"index\": " << row.index
           << ", \"success\": " << (row.success ? 1 : 0)
           << ", \"detector_ok\": " << (row.detector_ok ? 1 : 0)
           << ", \"distinct\": " << row.distinct_decisions
           << ", \"steps\": " << row.steps
           << ", \"witness_bound\": " << row.witness_bound
           << ", \"schedule_hash\": "
           << json_quote(sched::hash_hex(row.schedule_hash)) << "}";
      }
      os << "]";
    }
    os << ", \"timing\": "
       << section_timing(sec.cells, sec.wall_seconds, sec.timing).dump()
       << "}" << (s + 1 < sections_.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"total_cells\": " << total_cells << ",\n";
  os << "  \"timing\": "
     << document_timing(total_cells, total_wall,
                        JsonValue::of(static_cast<std::int64_t>(
                            config_.threads)))
            .dump()
     << "\n";
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

JsonValue strip_timing_keys(const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kObject: {
      JsonValue out = JsonValue::object();
      for (const auto& [key, member] : value.members()) {
        if (key == "timing") continue;
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

std::size_t require_count(const JsonValue& section,
                          const std::string& name,
                          const std::string& key) {
  const std::int64_t value = section.at(key).as_int();
  if (value < 0) {
    throw MergeError("section \"" + name + "\": negative " + key);
  }
  return static_cast<std::size_t>(value);
}

/// The member `key` of every part, which must be equal across them.
const JsonValue& agreed_member(const std::vector<const JsonValue*>& parts,
                               const std::string& name,
                               const std::string& key) {
  const JsonValue& first = parts[0]->at(key);
  for (const JsonValue* part : parts) {
    if (!(part->at(key) == first)) {
      throw MergeError("section \"" + name + "\": shards disagree on " +
                       key);
    }
  }
  return first;
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
    const JsonValue& w = part->at("timing").at("wall_seconds");
    if (w.is_number()) wall += w.as_double();
  }

  JsonValue out = JsonValue::object();
  out.set("name", JsonValue::of(name));
  out.set("cells", JsonValue::of(cells));
  out.set("timing", section_timing(cells, wall));

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

  if (grid) {
    out.set("grid_cells", agreed_member(parts, name, "grid_cells"));
    const JsonValue& repeat_factor =
        agreed_member(parts, name, "repeat_factor");
    out.set("repeat_factor", repeat_factor);
    std::vector<JsonValue> rows;
    std::vector<GridRow> facts_rows;
    std::int64_t last_index = -1;
    for (const JsonValue* part : parts) {
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
        GridRow facts_row;
        facts_row.index = static_cast<std::size_t>(index);
        facts_row.success = row.at("success").as_int() != 0;
        facts_row.detector_ok = row.at("detector_ok").as_int() != 0;
        facts_row.steps = row.at("steps").as_int();
        facts_row.witness_bound = row.at("witness_bound").as_int();
        facts_rows.push_back(facts_row);
        rows.push_back(row);
      }
    }
    const int width =
        static_cast<int>(std::max<std::int64_t>(1, repeat_factor.as_int()));
    JsonValue facts = grid_facts(facts_rows, width);
    for (auto& [key, value] : facts.members()) {
      out.set(key, std::move(value));
    }
    out.set("rows", JsonValue::array(std::move(rows)));
  }

  // Every member not written above is a hand annotation, recombined by
  // its rule: same_keys facts must agree, everything else is a
  // shard-local count and sums. Keys merge in first-appearance order.
  std::vector<std::string> extra_keys;
  for (const JsonValue* part : parts) {
    for (const auto& [key, member] : part->members()) {
      if (out.find(key) == nullptr &&
          std::find(extra_keys.begin(), extra_keys.end(), key) ==
              extra_keys.end()) {
        extra_keys.push_back(key);
      }
    }
  }
  for (const std::string& key : extra_keys) {
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
  const JsonValue& threads = first.at("timing").at("threads");
  for (const auto& [spec, doc] : ranges) {
    for (const char* key : {"bench", "repeat"}) {
      if (!(doc->at(key) == first.at(key))) {
        throw MergeError(std::string("shard documents disagree on \"") +
                         key + "\"");
      }
    }
    if (!(doc->at("timing").at("threads") == threads)) {
      throw MergeError("shard documents disagree on \"threads\"");
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
    total_wall += section.at("timing").at("wall_seconds").as_double();
    sections.push_back(std::move(section));
  }
  merged.set("sections", JsonValue::array(std::move(sections)));
  merged.set("total_cells", JsonValue::of(total_cells));
  merged.set("timing", document_timing(total_cells, total_wall, threads));
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
