// The checked-in regression corpus (tests/corpus/): every entry the
// schedule fuzzer ever found replays from its recorded step stream
// alone — the hash matches, the packed analyzer reproduces the
// recorded bound, and the exhaustive reference analyzer agrees — so
// any analyzer drift trips here before it ships. The corpus directory
// is baked in as SETLIB_CORPUS_DIR by CMake.
//
// tests/corpus/threaded/ holds OS-chosen schedules: linearizations of
// the Theorem 24 stack run on one std::thread per process, each step
// taken inside a set-timeliness gate (first k pids timely w.r.t. the
// first t + 1 at bound 4), with the last pids crashed after a fixed
// number of their own steps. RecordedThreadsTest replays each through
// the simulator and must reach the recorded end state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/agreement/kset.h"
#include "src/agreement/validator.h"
#include "src/core/fuzz.h"
#include "src/fd/kantiomega.h"
#include "src/sched/analyzer.h"
#include "src/sched/generators.h"
#include "src/sched/schedule.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"
#include "src/util/json.h"

namespace setlib::core {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> json_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& item : fs::directory_iterator(dir)) {
    if (item.path().extension() == ".json") files.push_back(item.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<fs::path> corpus_files() { return json_files(SETLIB_CORPUS_DIR); }

JsonValue parse_file(const fs::path& file) {
  std::ifstream in(file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return JsonValue::parse(buffer.str());
}

CorpusEntry load(const fs::path& file) {
  return parse_corpus_entry(parse_file(file));
}

TEST(SchedCorpusTest, CorpusIsPopulated) {
  // The fuzzer found (at least) these regressions once; an emptied
  // directory means the suite silently stopped guarding them.
  EXPECT_GE(corpus_files().size(), 5u);
}

TEST(SchedCorpusTest, FileNamesPinTheHashAndCell) {
  // "<hash16>-i<I>j<J>.json": the name alone identifies the replay
  // (one minimized schedule can regress several cells).
  for (const fs::path& file : corpus_files()) {
    const CorpusEntry entry = load(file);
    const std::string expected = sched::hash_hex(entry.hash) + "-i" +
                                 std::to_string(entry.i) + "j" +
                                 std::to_string(entry.j);
    EXPECT_EQ(file.stem().string(), expected);
  }
}

TEST(SchedCorpusTest, EveryEntryReplaysFromItsHash) {
  for (const fs::path& file : corpus_files()) {
    const CorpusEntry entry = load(file);
    const CorpusVerdict verdict = verify_corpus_entry(entry);
    EXPECT_TRUE(verdict.ok)
        << file.filename().string() << ": " << verdict.detail;
    // Every entry is a genuine regression: it beat the best bound the
    // family registry baseline knew for its cell when it was found.
    EXPECT_GT(entry.bound, entry.baseline_bound)
        << file.filename().string();
  }
}

TEST(SchedCorpusTest, RejectsDegenerateCellCoordinates) {
  // The fuzzer's cell space is strictly i < j (the i == j pair is
  // trivially bound 1), and n is capped by the exhaustive reference
  // verification — a hand-edited or corrupted entry outside either
  // range must fail coordinate validation, not reach the analyzers.
  CorpusEntry entry;
  entry.n = 3;
  entry.schedule = sched::Schedule(3, {0, 1, 2});
  entry.hash = sched::schedule_hash(entry.schedule);
  entry.bound = 1;

  entry.i = 2;
  entry.j = 2;
  EXPECT_EQ(verify_corpus_entry(entry).detail,
            "malformed cell coordinates");

  entry.i = 1;
  entry.j = 2;
  entry.n = kMaxFuzzN + 1;
  EXPECT_EQ(verify_corpus_entry(entry).detail,
            "malformed cell coordinates");
}

// One recorded threaded run: the document's stack parameters, its
// step stream and the end state the threads reached.
struct RecordedRun {
  std::string stem;
  int n = 0;
  int k = 0;
  int t = 0;
  std::int64_t bound = 0;
  std::int64_t crash_ops = 0;
  ProcSet crashed;
  std::string hash;
  sched::Schedule schedule{1};
  std::vector<std::optional<std::int64_t>> decisions;
  std::vector<std::int64_t> detector_iterations;
  std::int64_t reads = 0;
  std::int64_t writes = 0;
};

/// Steps stored as one hex digit per pid (every recorded run has n <= 16).
std::vector<Pid> parse_hex_steps(const std::string& text, int n) {
  std::vector<Pid> steps;
  steps.reserve(text.size());
  for (const char c : text) {
    const int pid = c >= '0' && c <= '9'   ? c - '0'
                    : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                           : -1;
    if (pid < 0 || pid >= n) {
      throw std::runtime_error(std::string("steps: bad pid digit '") + c +
                               "'");
    }
    steps.push_back(pid);
  }
  return steps;
}

RecordedRun load_recorded(const fs::path& file) {
  const JsonValue doc = parse_file(file);
  RecordedRun run;
  run.stem = file.stem().string();
  run.n = static_cast<int>(doc.at("n").as_int());
  run.k = static_cast<int>(doc.at("k").as_int());
  run.t = static_cast<int>(doc.at("t").as_int());
  run.bound = doc.at("bound").as_int();
  run.crash_ops = doc.at("crash_ops").as_int();
  std::vector<Pid> crashed;
  for (const JsonValue& pid : doc.at("crashed").items()) {
    crashed.push_back(static_cast<Pid>(pid.as_int()));
  }
  run.crashed = ProcSet::from(crashed);
  run.hash = doc.at("schedule_hash").as_string();
  run.schedule = sched::Schedule(
      run.n, parse_hex_steps(doc.at("steps").as_string(), run.n));
  for (const JsonValue& d : doc.at("decisions").items()) {
    run.decisions.push_back(d.is_null() ? std::nullopt
                                        : std::optional(d.as_int()));
  }
  for (const JsonValue& it : doc.at("detector_iterations").items()) {
    run.detector_iterations.push_back(it.as_int());
  }
  run.reads = doc.at("reads").as_int();
  run.writes = doc.at("writes").as_int();
  return run;
}

fs::path threaded_dir() { return fs::path(SETLIB_CORPUS_DIR) / "threaded"; }

std::int64_t longest_solo_run(const sched::Schedule& s) {
  std::int64_t longest = 0;
  std::int64_t length = 0;
  Pid last = -1;
  for (const Pid p : s.steps()) {
    length = p == last ? length + 1 : 1;
    last = p;
    longest = std::max(longest, length);
  }
  return longest;
}

TEST(SchedCorpusTest, ThreadedRunsCoverEveryRowAndTheLongTail) {
  // One run per (t, k, n) row, named "<hash16>-t<T>k<K>n<N>", and a
  // (3, 3, 6) run whose OS schedule left one process alone for at
  // least 10,000 steps in a row.
  std::vector<std::string> rows;
  std::int64_t longest_336 = 0;
  for (const fs::path& file : json_files(threaded_dir())) {
    const RecordedRun run = load_recorded(file);
    std::ostringstream row_name;
    row_name << "t" << run.t << "k" << run.k << "n" << run.n;
    const std::string row = row_name.str();
    EXPECT_EQ(run.stem, run.hash + "-" + row);
    rows.push_back(row);
    if (row == "t3k3n6") {
      longest_336 = std::max(longest_336, longest_solo_run(run.schedule));
    }
  }
  for (const char* row :
       {"t1k1n3", "t2k1n4", "t2k2n5", "t3k2n6", "t3k3n6", "t4k2n8"}) {
    EXPECT_NE(std::find(rows.begin(), rows.end(), row), rows.end()) << row;
  }
  EXPECT_GE(rows.size(), 7u);
  EXPECT_GE(longest_336, 10'000);
}

// A recorded run's file, printed "t<T>k<K>n<N>_<hash16>" so the test
// name is the same in every checkout.
struct RecordedFile {
  fs::path path;
};

void PrintTo(const RecordedFile& file, std::ostream* os) {
  const std::string stem = file.path.stem().string();
  const auto dash = stem.find('-');
  *os << stem.substr(dash + 1) << "_" << stem.substr(0, dash);
}

std::vector<RecordedFile> recorded_files() {
  std::vector<RecordedFile> files;
  for (const fs::path& path : json_files(threaded_dir())) {
    files.push_back({path});
  }
  return files;
}

class RecordedThreadsTest : public ::testing::TestWithParam<RecordedFile> {};

// The stack the threads ran: the Figure 2 detector and k-set agreement
// over it, proposals 100 + p. Fed the recorded linearization, the
// simulator must end where the threads did.
TEST_P(RecordedThreadsTest, ReplaysInTheSimulator) {
  const RecordedRun run = load_recorded(GetParam().path);
  const int n = run.n;
  ASSERT_EQ(sched::hash_hex(sched::schedule_hash(run.schedule)), run.hash);

  shm::SimMemory mem;
  fd::KAntiOmega detector(mem, fd::KAntiOmega::Params{n, run.k, run.t, 1});
  agreement::KSetAgreement kset(
      mem, agreement::KSetAgreement::Params{n, run.k, run.t}, &detector);
  shm::Simulator sim(mem, n);
  std::vector<std::int64_t> proposals;
  for (Pid p = 0; p < n; ++p) {
    proposals.push_back(100 + p);
    sim.process(p).add_task(detector.run(p), "kanti-omega");
    kset.install(sim.process(p), p, proposals.back());
  }
  sched::ReplayGenerator replay(run.schedule);
  const std::int64_t steps = run.schedule.size();
  ASSERT_EQ(sim.run(replay, steps), steps);

  std::vector<std::optional<std::int64_t>> decisions;
  for (Pid p = 0; p < n; ++p) {
    decisions.push_back(kset.decided(p) ? std::optional(kset.outcome(p).value)
                                        : std::nullopt);
    EXPECT_EQ(detector.view(p).iterations,
              run.detector_iterations[static_cast<std::size_t>(p)])
        << "p" << p;
  }
  EXPECT_EQ(decisions, run.decisions);
  EXPECT_EQ(mem.read_count(), run.reads);
  EXPECT_EQ(mem.write_count(), run.writes);

  const auto verdict = agreement::validate_agreement(
      run.t, run.k, n, proposals, decisions, run.crashed);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_LE(verdict.distinct_values, run.k);
  EXPECT_LE(sched::min_timeliness_bound(run.schedule,
                                        ProcSet::range(0, run.k),
                                        ProcSet::range(0, run.t + 1)),
            run.bound);
  for (const Pid p : run.crashed.to_vector()) {
    EXPECT_EQ(std::count(run.schedule.steps().begin(),
                         run.schedule.steps().end(), p),
              run.crash_ops)
        << "crashed p" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Recorded, RecordedThreadsTest,
                         ::testing::ValuesIn(recorded_files()));

}  // namespace
}  // namespace setlib::core
