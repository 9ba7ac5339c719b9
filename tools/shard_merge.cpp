// shard_merge: merges the --cells documents of one bench run and
// compares documents modulo timing keys.
//
//   shard_merge [--out=PATH] SHARD.json...
//   shard_merge --diff FULL.json OTHER.json
//
// The merge mode reads the `--cells=LO..HI[/SPAN] --json` documents of
// one bench (any input order) and writes the document the unsharded
// run would have written (default MERGED.json); ranges that leave a
// gap, overlap, or disagree on the run's configuration are an error
// naming the problem. --diff compares two documents modulo timing
// keys: exit 0 when they match, exit 1 naming the first differing path
// when they do not. Unreadable or unparsable input exits 1 naming the
// file; a malformed command line exits 2.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/report.h"
#include "src/util/json.h"

using namespace setlib;

namespace {

constexpr const char* kUsage = R"(usage:
  shard_merge [--out=PATH] SHARD.json...
  shard_merge --diff FULL.json OTHER.json

The merge mode combines --cells=LO..HI documents whose ranges tile the
span into the --out document (default MERGED.json), bit-identical,
modulo timing keys, to the unsharded --json run. --diff exits 0 when
two documents match modulo timing keys, 1 (naming the first differing
path) when they do not.
)";

int fail_usage(const std::string& message) {
  std::cerr << "shard_merge: " << message << "\n" << kUsage;
  return 2;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream file(path);
  if (!file.good()) return false;
  file << text;
  return file.good();
}

/// Reads and parses one JSON document; reports the failure (naming
/// the file) and returns nullopt when it cannot.
std::optional<JsonValue> read_doc(const std::string& path) {
  std::ifstream file(path);
  if (!file.good()) {
    std::cerr << "shard_merge: cannot read " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  try {
    return JsonValue::parse(buffer.str());
  } catch (const JsonParseError& e) {
    std::cerr << "shard_merge: " << path << ": " << e.what() << "\n";
    return std::nullopt;
  }
}

int merge(const std::string& out_path,
          const std::vector<std::string>& paths) {
  if (paths.empty()) {
    return fail_usage("the merge needs at least one shard document");
  }
  std::vector<JsonValue> docs;
  docs.reserve(paths.size());
  for (const std::string& path : paths) {
    std::optional<JsonValue> doc = read_doc(path);
    if (!doc) return 1;
    docs.push_back(std::move(*doc));
  }
  try {
    const JsonValue merged = core::merge_shard_docs(docs);
    if (!write_file(out_path, merged.dump(1))) {
      std::cerr << "shard_merge: cannot write " << out_path << "\n";
      return 1;
    }
    std::cout << "merged " << paths.size() << " shard document"
              << (paths.size() == 1 ? "" : "s") << " -> " << out_path
              << "\n";
    return 0;
  } catch (const core::MergeError& e) {
    std::cerr << "shard_merge: merge failed: " << e.what() << "\n";
    return 1;
  }
}

/// The first path at which two timing-stripped documents differ, with
/// both values rendered canonically ("(absent)" for a missing member
/// or item); "" when they are equal. Object members are visited in
/// sorted-key order, the order canonical_json compares them in.
std::string first_difference(const JsonValue* a, const JsonValue* b,
                             const std::string& path) {
  auto render = [](const JsonValue* value) {
    return value ? core::canonical_json(*value) : std::string("(absent)");
  };
  const std::string x = render(a);
  const std::string y = render(b);
  if (x == y) return "";
  if (a && b && a->is_object() && b->is_object()) {
    std::set<std::string> keys;
    for (const auto& member : a->members()) keys.insert(member.first);
    for (const auto& member : b->members()) keys.insert(member.first);
    for (const std::string& key : keys) {
      std::string found = first_difference(
          a->find(key), b->find(key), path.empty() ? key : path + "." + key);
      if (!found.empty()) return found;
    }
  } else if (a && b && a->is_array() && b->is_array()) {
    const std::size_t n = std::max(a->items().size(), b->items().size());
    for (std::size_t i = 0; i < n; ++i) {
      auto item = [i](const JsonValue* v) {
        return i < v->items().size() ? &v->items()[i] : nullptr;
      };
      std::string found = first_difference(
          item(a), item(b), path + "[" + std::to_string(i) + "]");
      if (!found.empty()) return found;
    }
  }
  return (path.empty() ? "(document)" : path) + ": " + x + " vs " + y;
}

int diff(const std::vector<std::string>& paths) {
  if (paths.size() != 2) {
    return fail_usage("--diff needs exactly two documents");
  }
  const std::optional<JsonValue> full = read_doc(paths[0]);
  if (!full) return 1;
  const std::optional<JsonValue> other = read_doc(paths[1]);
  if (!other) return 1;
  const JsonValue want = core::strip_timing_keys(*full);
  const JsonValue got = core::strip_timing_keys(*other);
  const std::string difference = first_difference(&want, &got, "");
  if (difference.empty()) {
    std::cout << paths[1] << " is bit-identical to " << paths[0]
              << " modulo timing keys\n";
    return 0;
  }
  std::cout << paths[1] << " differs from " << paths[0]
            << " (timing keys excluded) at " << difference << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::string> out_path;
  bool diff_mode = false;
  std::vector<std::string> positional;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--diff") {
      diff_mode = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
      if (out_path->empty()) return fail_usage("--out= is empty");
    } else if (arg.rfind("--", 0) == 0) {
      return fail_usage("unknown flag " + arg);
    } else {
      positional.push_back(arg);
    }
  }

  if (diff_mode) {
    if (out_path) return fail_usage("--diff writes no --out document");
    return diff(positional);
  }
  return merge(out_path.value_or("MERGED.json"), positional);
}
