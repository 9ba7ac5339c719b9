// Atomic snapshot: sequential semantics, wait-freedom (step bound),
// and the atomicity property (with coordinatewise-monotone updates,
// all scans anywhere must be pairwise comparable — a total order of
// snapshots exists iff the object linearizes).
#include "src/shm/snapshot.h"

#include <gtest/gtest.h>

#include "src/sched/generators.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"

namespace setlib::shm {
namespace {

TEST(AtomicSnapshotTest, SequentialUpdateThenScan) {
  SimMemory mem;
  AtomicSnapshot snap(mem, 3, "snap", -1);
  Simulator sim(mem, 3);
  std::vector<std::int64_t> out;
  sim.process(0).add_task(snap.update(0, 10), "u");
  sched::RoundRobinGenerator rr0(3);
  sim.run(rr0, 100);
  sim.process(1).add_task(snap.update(1, 20), "u");
  sim.run(rr0, 100);
  sim.process(2).add_task(snap.scan(2, &out), "s");
  sim.run(rr0, 100);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[1], 20);
  EXPECT_EQ(out[2], -1);  // never updated: initial value
}

Prog updater_loop(AtomicSnapshot* snap, Pid p, int rounds) {
  for (int r = 1; r <= rounds; ++r) {
    co_await snap->update(p, r);
  }
}

Prog scanner_loop(AtomicSnapshot* snap, Pid p, int rounds,
                  std::vector<std::vector<std::int64_t>>* results) {
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::int64_t> out;
    co_await snap->scan(p, &out);
    results->push_back(out);
  }
}

bool comparable(const std::vector<std::int64_t>& a,
                const std::vector<std::int64_t>& b) {
  bool a_le_b = true, b_le_a = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) a_le_b = false;
    if (b[i] > a[i]) b_le_a = false;
  }
  return a_le_b || b_le_a;
}

class SnapshotAtomicitySweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotAtomicitySweep, AllScansPairwiseComparable) {
  // Every process updates its component with an increasing counter and
  // scans in between. Because every component is monotone, any two
  // ATOMIC snapshots are comparable; incomparable scans would prove a
  // linearization failure.
  const int n = 4;
  SimMemory mem;
  AtomicSnapshot snap(mem, n, "snap", 0);
  Simulator sim(mem, n);
  std::vector<std::vector<std::vector<std::int64_t>>> results(n);
  for (Pid p = 0; p < n; ++p) {
    sim.process(p).add_task(updater_loop(&snap, p, 30), "u");
    sim.process(p).add_task(scanner_loop(&snap, p, 30, &results[p]), "s");
  }
  sched::UniformRandomGenerator gen(n, GetParam());
  sim.run(gen, 600'000);

  std::vector<std::vector<std::int64_t>> all;
  for (const auto& per_proc : results) {
    for (const auto& s : per_proc) all.push_back(s);
  }
  ASSERT_GT(all.size(), 20u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      ASSERT_TRUE(comparable(all[i], all[j]))
          << "incomparable snapshots found (seed " << GetParam() << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotAtomicitySweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u));

TEST(AtomicSnapshotTest, ScanIsWaitFreeBounded) {
  // A scan completes within (n + 2) double collects even under
  // continuous interference: drive one scanner while all others
  // update nonstop, and count the scanner's own steps.
  const int n = 4;
  SimMemory mem;
  AtomicSnapshot snap(mem, n, "snap", 0);
  Simulator sim(mem, n);
  std::vector<std::int64_t> out;
  sim.process(0).add_task(snap.scan(0, &out), "s");
  for (Pid p = 1; p < n; ++p) {
    sim.process(p).add_task(updater_loop(&snap, p, 1'000'000), "u");
  }
  // Adversarial-ish schedule: scanner gets 1 step per 7 updater steps.
  sched::WeightedRandomGenerator gen({1.0, 2.3, 2.3, 2.4}, 3);
  sim.run_until(gen, 400'000, [&] { return !out.empty(); },
                /*check_every=*/1);
  ASSERT_FALSE(out.empty());
  // Steps of the scanner: at most (n+2) * 2n reads + slack.
  EXPECT_LE(sim.process(0).ops_executed(), (n + 2) * 2 * n + 4);
}

TEST(AtomicSnapshotTest, UpdateEmbedsCoherentView) {
  // After a lone updater runs, its segment's embedded view must agree
  // with the state its scan saw.
  const int n = 3;
  SimMemory mem;
  AtomicSnapshot snap(mem, n, "snap", 7);
  Simulator sim(mem, n);
  sim.process(1).add_task(snap.update(1, 99), "u");
  sched::RoundRobinGenerator gen(n);
  sim.run(gen, 200);
  const Value seg = mem.peek(snap.segment_reg(1));
  ASSERT_GE(seg.size(), static_cast<std::size_t>(2 + n));
  EXPECT_EQ(seg.at(0), 1);   // seq
  EXPECT_EQ(seg.at(1), 99);  // value
  EXPECT_EQ(seg.at(2), 7);   // view: initials everywhere
  EXPECT_EQ(seg.at(3), 7);
  EXPECT_EQ(seg.at(4), 7);
}

}  // namespace
}  // namespace setlib::shm
