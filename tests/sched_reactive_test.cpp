// Execution-reactive adversaries (src/sched/reactive.h): the registry
// resolves, generation is a pure function of (observations, seed),
// every emitted pid is alive and in range, the window-stretcher's
// silent stretches really grow past its base stretch, the
// budget-crasher never exceeds its budget nor steps a crashed process,
// and — mirroring sched_families_test — a 1000-schedule differential
// pins the packed analyzer against the reference scan on reactive
// schedules.
#include "src/sched/reactive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "src/sched/analyzer.h"
#include "src/sched/observations.h"
#include "src/util/rng.h"

namespace setlib::sched {
namespace {

ReactiveParams params_for(int n) {
  ReactiveParams p;
  p.n = n;
  p.stretch = 32;
  p.crash_budget = std::min(2, n - 1);
  return p;
}

TEST(ReactiveRegistryTest, NamesAreUniqueAndResolvable) {
  const auto& kinds = reactive_adversaries();
  ASSERT_EQ(kinds.size(), 3u);
  std::vector<std::string> names;
  for (const ReactiveInfo& info : kinds) {
    names.emplace_back(info.name);
    const ReactiveInfo* found = find_reactive(info.name);
    ASSERT_NE(found, nullptr) << info.name;
    EXPECT_EQ(found->kind, info.kind);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  EXPECT_EQ(find_reactive("no-such-adversary"), nullptr);
}

TEST(ReactiveRegistryTest, SameParamsAndSeedReproduceTheSchedule) {
  // victims = 2 keeps the epoch pools larger than one process, so the
  // seed actually steers the emissions for every kind.
  ReactiveParams p = params_for(6);
  p.victims = 2;
  for (const ReactiveInfo& info : reactive_adversaries()) {
    auto a = make_reactive(info.kind, p, 1234);
    auto b = make_reactive(info.kind, p, 1234);
    const Schedule sa = generate_observed(*a, 4'000);
    const Schedule sb = generate_observed(*b, 4'000);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::int64_t t = 0; t < sa.size(); ++t) {
      ASSERT_EQ(sa[t], sb[t]) << info.name << " diverges at step " << t;
    }
    auto c = make_reactive(info.kind, p, 99);
    const Schedule sc = generate_observed(*c, 4'000);
    bool differs = false;
    for (std::int64_t t = 0; t < sa.size(); ++t) {
      if (sa[t] != sc[t]) {
        differs = true;
        break;
      }
    }
    EXPECT_TRUE(differs) << info.name << " ignores its seed";
  }
}

TEST(ReactiveRegistryTest, EveryStepIsInRangeAndEverybodySteps) {
  Rng rng(7);
  for (const ReactiveInfo& info : reactive_adversaries()) {
    for (int trial = 0; trial < 6; ++trial) {
      const int n = 2 + static_cast<int>(rng.next_below(10));
      auto gen = make_reactive(info.kind, params_for(n), rng.next_u64());
      const Schedule s = generate_observed(*gen, 4'000);
      for (std::int64_t t = 0; t < s.size(); ++t) {
        ASSERT_GE(s[t], 0) << info.name;
        ASSERT_LT(s[t], n) << info.name;
      }
      // Liveness: every non-crashed process keeps stepping (release
      // passes / round-robin releases / uniform draws reach everyone).
      const ProcSet crashed = gen->crashes_requested();
      for (Pid q = 0; q < n; ++q) {
        if (!crashed.contains(q)) {
          EXPECT_GT(s.count(q), 0) << info.name << " starves pid " << q;
        }
      }
    }
  }
}

TEST(WindowStretcherTest, SilentStretchesGrowPastTheBaseStretch) {
  const int n = 5;
  ReactiveParams p = params_for(n);
  auto gen = make_reactive(ReactiveKind::kWindowStretcher, p, 11);
  const Schedule s = generate_observed(*gen, 8'000);
  // Every epoch silences its victims for stretch + max_silence steps,
  // and max_silence only grows — so some process must show a gap well
  // beyond the base stretch (the reactive-growth signature).
  std::int64_t longest_gap = 0;
  for (Pid victim = 0; victim < n; ++victim) {
    std::int64_t gap = 0;
    for (std::int64_t t = 0; t < s.size(); ++t) {
      gap = s[t] == victim ? 0 : gap + 1;
      longest_gap = std::max(longest_gap, gap);
    }
  }
  EXPECT_GE(longest_gap, 2 * p.stretch);
}

TEST(BudgetCrasherTest, StaysWithinBudgetAndNeverStepsTheCrashed) {
  const int n = 6;
  ReactiveParams p = params_for(n);
  p.crash_budget = 3;
  auto gen = make_reactive(ReactiveKind::kBudgetCrasher, p, 21);
  // Drive the closed loop by hand so the crash set can be sampled
  // before every pull: once a process is in crashes_requested it must
  // never be emitted again.
  for (std::int64_t t = 0; t < 6'000; ++t) {
    const ProcSet crashed_before = gen->crashes_requested();
    const Pid stepped = gen->next();
    ASSERT_FALSE(crashed_before.contains(stepped))
        << "crashed pid " << stepped << " stepped at " << t;
    gen->feed_ptr()->record_step(stepped);
  }
  const ProcSet crashed = gen->crashes_requested();
  EXPECT_LE(crashed.size(), p.crash_budget);
  EXPECT_LT(crashed.size(), n);  // somebody always survives
  // The seeded checkpoints fire well inside 6000 steps, so the budget
  // is actually spent even with no published progress.
  EXPECT_GT(crashed.size(), 0);
}

TEST(DecisionChaserTest, ChasesThePublishedFrontier) {
  const int n = 4;
  auto feed = std::make_shared<ObservationFeed>(n);
  ReactiveParams p = params_for(n);
  p.stretch = 64;
  auto gen =
      make_reactive(ReactiveKind::kDecisionChaser, p, 5, feed);
  // Publish pid 2 as far ahead of everyone: outside the round-robin
  // release steps it must never be scheduled.
  feed->publish_progress(2, 1'000'000);
  std::int64_t chased_steps = 0;
  for (std::int64_t t = 0; t < 1'000; ++t) {
    const Pid stepped = gen->next();
    feed->record_step(stepped);
    if (stepped == 2) ++chased_steps;
  }
  // Only the every-`stretch` liveness release can reach pid 2 (1000 /
  // 64 rotations over 4 alive pids => a handful of steps at most).
  EXPECT_LE(chased_steps, 1'000 / p.stretch);
  EXPECT_GT(chased_steps, 0);  // but it is never starved forever
}

// The closed loop with engine-style publication: every 64 steps each
// process's progress is published as a function of its step count, and
// process q is published decided once it has taken 150 * (q + 1)
// steps, so the chased and decided sets both move during the run.
Schedule generate_published(ReactiveGenerator& gen, std::int64_t steps) {
  ObservationFeed& feed = *gen.feed_ptr();
  Schedule out(gen.n());
  for (std::int64_t i = 0; i < steps; ++i) {
    const Pid p = gen.next();
    out.append(p);
    feed.record_step(p);
    if ((i + 1) % 64 != 0) continue;
    for (Pid q = 0; q < gen.n(); ++q) {
      feed.publish_progress(q, feed.steps_of(q) / 3 + q);
      if (feed.steps_of(q) >= 150 * (q + 1)) feed.publish_decided(q);
    }
  }
  return out;
}

// schedule_hash of 3,000 generated steps for every reactive kind over
// n x victims x stretch x crash budget x publication, in loop order.
// Captured before the reactive adversaries lost their per-step
// allocations and divisions, and re-pinned only when schedule_hash
// itself was redefined (four lanes), after the same streams still
// matched the old constants under the old hash. They pin the streams
// bit for bit and must never be re-pinned to make a change pass.
constexpr std::uint64_t kPinnedStreams[] = {
    0xd62de68b58ca18feull, 0xd62de68b58ca18feull, 0xd62de68b58ca18feull,
    0xd62de68b58ca18feull, 0xb8f07ab671014ed5ull, 0xb8f07ab671014ed5ull,
    0xb8f07ab671014ed5ull, 0xb8f07ab671014ed5ull, 0xd62de68b58ca18feull,
    0xd62de68b58ca18feull, 0xd62de68b58ca18feull, 0xd62de68b58ca18feull,
    0xb8f07ab671014ed5ull, 0xb8f07ab671014ed5ull, 0xb8f07ab671014ed5ull,
    0xb8f07ab671014ed5ull, 0x4913807a2620e035ull, 0x4913807a2620e035ull,
    0x4913807a2620e035ull, 0x4913807a2620e035ull, 0xab575d9b8732c25full,
    0xab575d9b8732c25full, 0xab575d9b8732c25full, 0xab575d9b8732c25full,
    0xbe251110f3a04e29ull, 0xdcd157596231c3cfull, 0xe92a7a1ce5896985ull,
    0xe50b0690da078112ull, 0x8d16043ef02c32ebull, 0xebc88b303da4833cull,
    0xcc72470fa413fa55ull, 0xaa3534a92663860aull, 0x076b597389807c89ull,
    0x076b597389807c89ull, 0x076b597389807c89ull, 0x076b597389807c89ull,
    0x536cccffa784cd1cull, 0x536cccffa784cd1cull, 0x536cccffa784cd1cull,
    0x536cccffa784cd1cull, 0x08c4d8d0a3b945acull, 0xa14a9e256a9685edull,
    0xc7d152804624f0b1ull, 0x8e2ee92cb511af06ull, 0xb8c409c2e86f31e5ull,
    0xf7f7650428f95265ull, 0x569db1e3424d7c8dull, 0x8f7b141b36e9065eull,
    0x92ffdcc23b7607e4ull, 0xb8b7eab67c12f90full, 0x94eaa3fa9fbe98c2ull,
    0x04f15a8d4f537b26ull, 0x3767f3ac4a7da341ull, 0x51736525b9c279c9ull,
    0x98f3b66222e0879dull, 0x2bf89f187ed09f82ull, 0x48191123ac462aabull,
    0xd4ee5f7a46710003ull, 0x48191123ac462aabull, 0xd4ee5f7a46710003ull,
    0xa3f544ce90b0babeull, 0x1e194f994ea099a6ull, 0xa3f544ce90b0babeull,
    0x1e194f994ea099a6ull, 0xb806ed2b56bfe04eull, 0xf02670d25e6ed9aeull,
    0x7657c5deab162f50ull, 0x686b14f06fb46c0cull, 0xa399a0dd34c76d27ull,
    0x6b3d12bcdd6ea182ull, 0x5feef6d0dac25163ull, 0x626f46abd37c4e56ull,
    0xc5d8eed8cce3b958ull, 0xd278bdb2d3e6b2f9ull, 0x2103b3a57bdc71bfull,
    0xff4cb53978991b52ull, 0x3f86e1878a4b77a0ull, 0x26ed8476b68e7cbdull,
    0xb2c4e910d9e69603ull, 0xe766e42f71a084edull, 0xc66f6de26f6816e8ull,
    0x6f61dfe3f9e3fe43ull, 0x7008e9d50102f709ull, 0x71a99b8b2ab2bfbbull,
    0x7dd5f04ef374683eull, 0x677a911d44823a10ull, 0x59520cf005d72cbfull,
    0x0b28b9b7e4d8df52ull, 0xb2563cdc6dee5e34ull, 0x2420e448a9356a7eull,
    0x8c66e47a9febf15cull, 0x199c360d545be2a3ull, 0x407cfaa352361adfull,
    0x6a53512123778cc5ull, 0x7a0747fd235cfc95ull, 0x63cd8feb99db082aull,
    0xa8b5a5a041b541cbull, 0x8fc79331bb9ce78eull, 0xc6b841f35bd5b3c1ull,
    0x3dc0e85cdc952148ull, 0x6aac4da07317f84cull, 0xa9f45830a577f26aull,
    0x04078206e9705e0bull, 0xb03f5b310a0c6fc4ull, 0x735ea25cfffc2c23ull,
    0xe0cc442c3a0410c5ull, 0x20f051806f497012ull, 0x97b659c048d008b3ull,
    0x0d16de1350a9f97aull, 0x39026418cd4255d4ull, 0x199dae1398ceadecull,
    0x343fb144b3c61a39ull, 0x2764b00a386da789ull, 0xbfff8fda7823bc39ull,
    0x0cd844fea6ed9e0full, 0xf7321f73f9ad1895ull, 0xa99156cb0f700c68ull,
    0xd63fc0aa7e0ed948ull, 0x975066f7c0a5b914ull, 0x619e8d985e3720c6ull,
    0x60962b936d3487c4ull, 0x1a0006749c897c28ull, 0x2a035232f13e6d02ull,
    0x55028659782e9c0cull, 0x772bbba40e18072cull, 0xcebe4404c407339dull,
    0xf5b3da897a240fd5ull, 0x039d027afd73d136ull, 0x8a705fec51cfd55eull,
    0xeada41ea42f39878ull, 0x2f80ab84d3ad9c3eull, 0x8ae996e92f8abf0dull,
    0xf5246e34a6a4f36aull, 0xc491156afe755763ull, 0xc897bf378b915c7full,
    0x27483f16e2737e0cull, 0x0bc600c9537456ebull, 0xa3562ced5b719fc3ull,
    0xbbeb07d39b93cd2aull, 0x3db679b9e07efba8ull, 0xb335e1da4473f38aull,
    0xbbdaa3c173d16423ull, 0x5afd4c9d18647077ull, 0x91ae16bc793831adull,
};

TEST(ReactivePinnedTest, StreamsMatchTheirPinnedHashes) {
  std::size_t index = 0;
  for (const ReactiveInfo& info : reactive_adversaries()) {
    for (const int n : {3, 5, 7}) {
      for (const int victims : {0, 2}) {
        for (const std::int64_t stretch : {8, 64}) {
          for (const int budget : {1, 2}) {
            for (const bool published : {false, true}) {
              ReactiveParams p;
              p.n = n;
              p.victims = victims;
              p.stretch = stretch;
              p.crash_budget = budget;
              auto gen = make_reactive(info.kind, p, 17 + index);
              const Schedule s = published ? generate_published(*gen, 3'000)
                                           : generate_observed(*gen, 3'000);
              ASSERT_LT(index, std::size(kPinnedStreams));
              EXPECT_EQ(schedule_hash(s), kPinnedStreams[index])
                  << info.name << " n=" << n << " victims=" << victims
                  << " stretch=" << stretch << " budget=" << budget
                  << " published=" << published << " index=" << index;
              ++index;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(index, std::size(kPinnedStreams));
}

TEST(ObservationFeedTest, TracksSilencesWindowsAndCrashes) {
  ObservationFeed feed(3);
  EXPECT_EQ(feed.total_steps(), 0);
  EXPECT_EQ(feed.max_silence(), 0);
  feed.record_step(0);
  feed.record_step(0);
  feed.record_step(1);
  EXPECT_EQ(feed.total_steps(), 3);
  EXPECT_EQ(feed.steps_of(0), 2);
  EXPECT_EQ(feed.max_silence(), 3);  // pid 2 never stepped
  feed.record_step(2);
  // The least recent last step is pid 0's, two steps before pid 1's
  // and pid 2's.
  EXPECT_EQ(feed.max_silence(), 2);
  feed.record_crash(2);
  feed.record_crash(2);  // idempotent
  EXPECT_EQ(feed.crashed(), ProcSet::of({2}));
  feed.publish_decided(1);
  EXPECT_TRUE(feed.decided(1));
  EXPECT_EQ(feed.decided_set(), ProcSet::of({1}));
  feed.publish_progress(0, 7);
  EXPECT_TRUE(feed.has_progress(0));
  EXPECT_EQ(feed.progress_of(0), 7);
  EXPECT_FALSE(feed.has_progress(1));
  EXPECT_EQ(feed.progress_of(1), feed.steps_of(1));  // proxy
}

TEST(ReactiveDifferentialTest, PackedBoundsBitIdenticalOn1000Schedules) {
  // The 1000-schedule differential harness over the reactive
  // adversaries: pure-generation (generate_observed) schedules pin the
  // packed analyzer against the reference scan, full prefixes and
  // random [from, to) windows alike.
  Rng rng(2027);
  const auto& kinds = reactive_adversaries();
  for (int trial = 0; trial < 1000; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(23));  // up to 24
    std::int64_t len = rng.next_in(0, 400);
    if (trial % 7 == 0) len = 64 * rng.next_in(0, 4);   // word-aligned
    if (trial % 11 == 0) len = 63 + rng.next_in(0, 3);  // straddling
    ReactiveParams p;
    p.n = n;
    p.stretch = 1 + rng.next_in(0, 64);
    p.victims = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    p.crash_budget = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    p.decide_threshold = rng.next_in(0, 64);
    const ReactiveInfo& info = kinds[rng.next_below(kinds.size())];
    auto gen = make_reactive(info.kind, p, rng.next_u64());
    const Schedule s = generate_observed(*gen, len);

    ProcSet p_set;
    ProcSet q_set;
    for (Pid pid = 0; pid < n; ++pid) {
      if (rng.next_bool(0.4)) p_set = p_set.with(pid);
      if (rng.next_bool(0.4)) q_set = q_set.with(pid);
    }
    EXPECT_EQ(min_timeliness_bound(s, p_set, q_set),
              min_timeliness_bound_reference(s, p_set, q_set))
        << info.name << " n=" << n << " len=" << len;
    if (len > 0) {
      const std::int64_t from = rng.next_in(0, len);
      const std::int64_t to = rng.next_in(from, len);
      EXPECT_EQ(min_timeliness_bound(s, p_set, q_set, from, to),
                min_timeliness_bound_reference(s, p_set, q_set, from, to))
          << info.name << " n=" << n << " len=" << len << " ["
          << from << "," << to << ")";
    }
  }
}

}  // namespace
}  // namespace setlib::sched
