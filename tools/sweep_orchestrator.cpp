// sweep_orchestrator: multi-process driver for the bench binaries.
//
// The virtual cell space is carved into many small ranges, M worker
// loops lease ranges with deadlines and run
// `--cells=LO..HI --json=<shard-dir>/lease_<id>.json` children through
// the runtime::Transport seam; a crashed, hung, or straggling worker's
// lease is split, requeued, and re-leased, and the accepted lease
// documents merge into one --out document bit-identical (modulo timing
// keys) to the unsharded `--json` run. The merged document carries the
// scheduler's accounting as "orchestration" inside its top-level
// "timing" object.
//
//   sweep_orchestrator <bench> [--workers=M] [--ranges=R]
//                      [--lease-timeout=SECONDS] [--straggler-factor=F]
//                      [--straggler-min-ms=MS] [--failure-budget=B]
//                      [--backoff-ms=MS] [--backoff-cap-ms=MS]
//                      [--backoff-seed=S] [--chaos-kill-nth=N]
//                      [--chaos-kill-delay-ms=MS] [--out=PATH]
//                      [--shard-dir=DIR] [--keep-shards]
//                      [-- <args forwarded to every worker>]
//
// The chaos flags wrap the transport in runtime::ChaosKillTransport,
// SIGKILLing the N-th launched child after a delay — the CI fixture
// proving that a murdered worker costs nothing but a reshard.
//
// The merge and the determinism check are exposed on their own:
//
//   sweep_orchestrator --merge-only [--out=PATH] SHARD.json...
//   sweep_orchestrator --diff FULL.json OTHER.json
//
// --merge-only merges already-written --cells documents (for example
// a hand-run `--cells=0..1/2` + `--cells=1..2/2` split). --diff
// compares two documents modulo timing keys: exit 0 when they match,
// exit 1 naming the first differing path when they do not.
#include <algorithm>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/orchestrator.h"
#include "src/core/report.h"
#include "src/core/sweep_cli.h"
#include "src/runtime/transport.h"
#include "src/util/assert.h"
#include "src/util/json.h"

using namespace setlib;

namespace {

constexpr const char* kUsage = R"(usage:
  sweep_orchestrator <bench> [--workers=M] [--ranges=R]
                     [--lease-timeout=SECONDS] [--straggler-factor=F]
                     [--straggler-min-ms=MS] [--failure-budget=B]
                     [--backoff-ms=MS] [--backoff-cap-ms=MS]
                     [--backoff-seed=S] [--chaos-kill-nth=N]
                     [--chaos-kill-delay-ms=MS] [--out=PATH]
                     [--shard-dir=DIR] [--keep-shards]
                     [-- <args forwarded to workers>]
  sweep_orchestrator --merge-only [--out=PATH] SHARD.json...
  sweep_orchestrator --diff FULL.json OTHER.json

M worker loops lease --cells=LO..HI ranges with deadlines; dead, hung,
or straggling workers have their leases split and re-leased. The merged
--out document (default MERGED.json) is bit-identical, modulo timing
keys, to the unsharded --json run. --merge-only skips the launching and
merges already-written --cells documents. --diff exits 0 when two
documents match modulo timing keys, 1 (naming the first differing path)
when they do not.
)";

int fail_usage(const std::string& message) {
  std::cerr << "sweep_orchestrator: " << message << "\n" << kUsage;
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
    std::cerr << "sweep_orchestrator: cannot read " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  try {
    return JsonValue::parse(buffer.str());
  } catch (const JsonParseError& e) {
    std::cerr << "sweep_orchestrator: " << path << ": " << e.what()
              << "\n";
    return std::nullopt;
  }
}

int merge_only(const std::string& out_path,
               const std::vector<std::string>& paths) {
  if (paths.empty()) {
    return fail_usage("--merge-only needs at least one shard document");
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
      std::cerr << "sweep_orchestrator: cannot write " << out_path
                << "\n";
      return 1;
    }
    std::cout << "merged " << paths.size() << " shard document"
              << (paths.size() == 1 ? "" : "s") << " -> " << out_path
              << "\n";
    return 0;
  } catch (const core::MergeError& e) {
    std::cerr << "sweep_orchestrator: merge failed: " << e.what()
              << "\n";
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
  core::ElasticOrchestratorOptions options;
  std::string out_path = "MERGED.json";
  bool merge_only_mode = false;
  bool diff_mode = false;
  int chaos_kill_nth = 0;
  int chaos_kill_delay_ms = 0;
  std::vector<std::string> positional;

  try {
    int i = 1;
    for (; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--") {
        // Everything after -- goes to the workers verbatim.
        for (++i; i < argc; ++i) options.bench_args.push_back(argv[i]);
        break;
      }
      if (arg == "--merge-only") {
        merge_only_mode = true;
        continue;
      }
      if (arg == "--diff") {
        diff_mode = true;
        continue;
      }
      if (arg == "--keep-shards") {
        options.keep_shards = true;
        continue;
      }
      if (core::consume_int_flag(arg, "--workers=", &options.workers)) {
        if (options.workers < 1) {
          return fail_usage("--workers= must be >= 1");
        }
        continue;
      }
      long ranges = 0;
      if (core::consume_long_flag(arg, "--ranges=", &ranges)) {
        if (ranges < 0) return fail_usage("--ranges= must be >= 0");
        options.ranges = static_cast<std::size_t>(ranges);
        continue;
      }
      int lease_timeout_seconds = 0;
      if (core::consume_int_flag(arg, "--lease-timeout=",
                                 &lease_timeout_seconds)) {
        if (lease_timeout_seconds < 1) {
          return fail_usage("--lease-timeout= must be >= 1 second");
        }
        options.lease_timeout = std::chrono::seconds(lease_timeout_seconds);
        continue;
      }
      if (core::consume_double_flag(arg, "--straggler-factor=",
                                    &options.straggler_factor)) {
        if (options.straggler_factor < 0.0) {
          return fail_usage("--straggler-factor= must be >= 0");
        }
        continue;
      }
      int straggler_min_ms = 0;
      if (core::consume_int_flag(arg, "--straggler-min-ms=",
                                 &straggler_min_ms)) {
        if (straggler_min_ms < 0) {
          return fail_usage("--straggler-min-ms= must be >= 0");
        }
        options.straggler_min = std::chrono::milliseconds(straggler_min_ms);
        continue;
      }
      long failure_budget = 0;
      if (core::consume_long_flag(arg, "--failure-budget=",
                                  &failure_budget)) {
        if (failure_budget < 0) {
          return fail_usage("--failure-budget= must be >= 0");
        }
        options.failure_budget = static_cast<std::size_t>(failure_budget);
        continue;
      }
      int backoff_ms = 0;
      if (core::consume_int_flag(arg, "--backoff-ms=", &backoff_ms)) {
        if (backoff_ms < 0) return fail_usage("--backoff-ms= must be >= 0");
        options.backoff.base = std::chrono::milliseconds(backoff_ms);
        continue;
      }
      int backoff_cap_ms = 0;
      if (core::consume_int_flag(arg, "--backoff-cap-ms=",
                                 &backoff_cap_ms)) {
        if (backoff_cap_ms < 0) {
          return fail_usage("--backoff-cap-ms= must be >= 0");
        }
        options.backoff.cap = std::chrono::milliseconds(backoff_cap_ms);
        continue;
      }
      long backoff_seed = 0;
      if (core::consume_long_flag(arg, "--backoff-seed=",
                                  &backoff_seed)) {
        options.backoff.seed = static_cast<std::uint64_t>(backoff_seed);
        continue;
      }
      if (core::consume_int_flag(arg, "--chaos-kill-nth=",
                                 &chaos_kill_nth)) {
        if (chaos_kill_nth < 1) {
          return fail_usage("--chaos-kill-nth= must be >= 1");
        }
        continue;
      }
      if (core::consume_int_flag(arg, "--chaos-kill-delay-ms=",
                                 &chaos_kill_delay_ms)) {
        if (chaos_kill_delay_ms < 0) {
          return fail_usage("--chaos-kill-delay-ms= must be >= 0");
        }
        continue;
      }
      if (arg.rfind("--out=", 0) == 0) {
        out_path = arg.substr(6);
        if (out_path.empty()) return fail_usage("--out= is empty");
        continue;
      }
      if (arg.rfind("--shard-dir=", 0) == 0) {
        options.shard_dir = arg.substr(12);
        if (options.shard_dir.empty()) {
          return fail_usage("--shard-dir= is empty");
        }
        continue;
      }
      if (arg.rfind("--", 0) == 0) {
        return fail_usage("unknown flag " + arg);
      }
      positional.push_back(arg);
    }
  } catch (const ContractViolation& e) {
    return fail_usage(e.what());
  }

  if (merge_only_mode && diff_mode) {
    return fail_usage("--merge-only and --diff are separate modes");
  }
  if (merge_only_mode) return merge_only(out_path, positional);
  if (diff_mode) return diff(positional);

  if (positional.size() != 1) {
    return fail_usage("expected exactly one bench binary");
  }
  options.bench = positional[0];

  runtime::LocalExecTransport local;
  std::unique_ptr<runtime::ChaosKillTransport> chaos;
  options.transport = &local;
  if (chaos_kill_nth >= 1) {
    chaos = std::make_unique<runtime::ChaosKillTransport>(
        local, chaos_kill_nth,
        std::chrono::milliseconds(chaos_kill_delay_ms));
    options.transport = chaos.get();
  }

  const core::ElasticResult result = core::orchestrate_elastic(options);
  std::cout << result.summary();
  if (!result.ok()) {
    std::cerr << "sweep_orchestrator: incomplete run, not writing "
              << out_path << "\n";
    return 1;
  }
  if (!write_file(out_path, result.merged.dump(1))) {
    std::cerr << "sweep_orchestrator: cannot write " << out_path
              << " (lease documents kept in " << options.shard_dir
              << ")\n";
    return 1;
  }
  if (!options.keep_shards) core::remove_lease_documents(options, result);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
