// schedule_fuzzer: seeded search for bound-regressing schedules.
//
// Drives core::fuzz_schedules over the (family | reactive, params,
// seed) space, scores every schedule with the packed analyzer's
// best-pair bound per (i, j) cell, and appends minimized, hash-pinned
// regressions to a JSON corpus (one <hash>.json file per entry; the
// checked-in regression suite lives in tests/corpus/).
//
//   schedule_fuzzer [--seed=S] [--budget=B] [--n=N] [--steps=L]
//                   [--threads=T] [--corpus=DIR]
//   schedule_fuzzer --verify --corpus=DIR
//   schedule_fuzzer --replay=HASH --corpus=DIR
//
// Determinism: with a fixed --seed and --budget, two runs emit
// identical corpora at any --threads value (trials are scored in
// parallel but admitted in trial order). --verify replays every corpus
// entry from its recorded step stream, recomputing the hash and the
// bound with both the packed and the reference analyzer; --replay does
// the same for every entry carrying one hash — the one-line repro for
// any regression the fuzzer ever found.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/fuzz.h"
#include "src/core/runner.h"
#include "src/core/sweep_cli.h"
#include "src/util/json.h"

namespace {

namespace fs = std::filesystem;
using setlib::core::CorpusEntry;

/// Corpus file stem: "<hash16>-i<I>j<J>". One schedule can regress
/// several cells (the minimized artifact may coincide), so the cell
/// coordinates join the hash in the name.
std::string corpus_stem(const CorpusEntry& entry) {
  return setlib::sched::hash_hex(entry.hash) + "-i" +
         std::to_string(entry.i) + "j" + std::to_string(entry.j);
}

struct FuzzerCli {
  setlib::core::FuzzOptions fuzz;
  int threads = 1;
  std::string corpus_dir;
  std::string replay_hash;
  bool verify = false;
};

FuzzerCli parse_cli(int argc, char** argv) {
  FuzzerCli cli;
  long seed = 1;
  long steps = 20'000;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (setlib::core::consume_long_flag(arg, "--seed=", &seed)) continue;
    if (setlib::core::consume_int_flag(arg, "--budget=", &cli.fuzz.budget)) {
      if (cli.fuzz.budget < 0) {
        throw std::runtime_error("--budget=: value '" +
                                 std::to_string(cli.fuzz.budget) +
                                 "' is negative");
      }
      continue;
    }
    if (setlib::core::consume_int_flag(arg, "--n=", &cli.fuzz.n)) continue;
    if (setlib::core::consume_long_flag(arg, "--steps=", &steps)) continue;
    if (setlib::core::consume_threads_flag(arg, &cli.threads)) continue;
    if (arg.rfind("--corpus=", 0) == 0) {
      cli.corpus_dir = arg.substr(std::string("--corpus=").size());
      continue;
    }
    if (arg.rfind("--replay=", 0) == 0) {
      cli.replay_hash = arg.substr(std::string("--replay=").size());
      continue;
    }
    if (arg == "--verify") {
      cli.verify = true;
      continue;
    }
    throw std::runtime_error("unknown flag: " + arg);
  }
  cli.fuzz.seed = static_cast<std::uint64_t>(seed);
  cli.fuzz.schedule_len = steps;
  return cli;
}

/// Loads every *.json corpus entry, sorted by file name (= hash) so
/// the load order is stable across filesystems.
std::vector<CorpusEntry> load_corpus(const std::string& dir) {
  std::vector<CorpusEntry> entries;
  if (dir.empty() || !fs::exists(dir)) return entries;
  std::vector<fs::path> files;
  for (const auto& item : fs::directory_iterator(dir)) {
    if (item.path().extension() == ".json") files.push_back(item.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    std::ifstream in(file);
    std::stringstream buffer;
    buffer << in.rdbuf();
    entries.push_back(setlib::core::parse_corpus_entry(
        setlib::JsonValue::parse(buffer.str())));
    const std::string stem = file.stem().string();
    if (stem != corpus_stem(entries.back())) {
      throw std::runtime_error("corpus file " + file.string() +
                               " is not named after its hash and cell");
    }
  }
  return entries;
}

int verify_entries(const std::vector<CorpusEntry>& entries) {
  int failures = 0;
  for (const CorpusEntry& entry : entries) {
    const auto verdict = setlib::core::verify_corpus_entry(entry);
    std::cout << (verdict.ok ? "PASS" : "FAIL") << " "
              << setlib::sched::hash_hex(entry.hash) << " n=" << entry.n
              << " i=" << entry.i << " j=" << entry.j
              << " bound=" << entry.bound << " (" << entry.adversary
              << ")";
    if (!verdict.ok) std::cout << " -- " << verdict.detail;
    std::cout << "\n";
    if (!verdict.ok) ++failures;
  }
  std::cout << entries.size() << " corpus entries, " << failures
            << " failed\n";
  return failures == 0 ? 0 : 1;
}

int run(int argc, char** argv) {
  const FuzzerCli cli = parse_cli(argc, argv);

  if (!cli.replay_hash.empty()) {
    // One minimized schedule can regress several cells, so every entry
    // carrying the hash is verified.
    std::vector<CorpusEntry> matches;
    for (CorpusEntry& entry : load_corpus(cli.corpus_dir)) {
      if (setlib::sched::hash_hex(entry.hash) == cli.replay_hash) {
        matches.push_back(std::move(entry));
      }
    }
    if (matches.empty()) {
      std::cerr << "no corpus entry with hash " << cli.replay_hash
                << " in " << cli.corpus_dir << "\n";
      return 1;
    }
    return verify_entries(matches);
  }

  if (cli.verify) {
    const auto entries = load_corpus(cli.corpus_dir);
    if (entries.empty()) {
      std::cerr << "no corpus entries under " << cli.corpus_dir << "\n";
      return 1;
    }
    return verify_entries(entries);
  }

  const auto known = load_corpus(cli.corpus_dir);
  setlib::core::RunnerOptions options;
  options.name = "schedule_fuzzer";
  options.threads = cli.threads;
  setlib::core::ExperimentRunner runner(options);
  const auto result =
      setlib::core::fuzz_schedules(runner, cli.fuzz, known);

  std::cout << "fuzz: seed=" << cli.fuzz.seed
            << " budget=" << result.trials << " n=" << cli.fuzz.n
            << " steps=" << cli.fuzz.schedule_len << "\n";
  for (const auto& cell : result.cells) {
    std::cout << "cell i=" << cell.i << " j=" << cell.j
              << " baseline=" << cell.baseline << " best=" << cell.best
              << (cell.best > cell.baseline ? "  (regressed)" : "")
              << "\n";
  }
  for (const CorpusEntry& finding : result.findings) {
    std::cout << "finding " << setlib::sched::hash_hex(finding.hash)
              << " i=" << finding.i << " j=" << finding.j << " bound "
              << finding.baseline_bound << " -> " << finding.bound
              << " len=" << finding.schedule.size() << " ("
              << finding.adversary << ")\n";
  }

  if (!cli.corpus_dir.empty() && !result.findings.empty()) {
    fs::create_directories(cli.corpus_dir);
    for (const CorpusEntry& finding : result.findings) {
      const fs::path file =
          fs::path(cli.corpus_dir) / (corpus_stem(finding) + ".json");
      std::ofstream out(file);
      out << setlib::core::corpus_entry_json(finding);
      std::cout << "wrote " << file.string() << "  (repro: schedule_fuzzer"
                << " --corpus=" << cli.corpus_dir
                << " --replay=" << setlib::sched::hash_hex(finding.hash)
                << ")\n";
    }
  }
  std::cout << result.findings.size() << " new corpus entr"
            << (result.findings.size() == 1 ? "y" : "ies") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "schedule_fuzzer: " << e.what() << "\n";
    return 2;
  }
}
