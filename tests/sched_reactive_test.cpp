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
// allocations and divisions; they pin the streams bit for bit and must
// never be re-pinned to make a change pass.
constexpr std::uint64_t kPinnedStreams[] = {
    0xa7a765ba75d8f962ull, 0xa7a765ba75d8f962ull, 0xa7a765ba75d8f962ull,
    0xa7a765ba75d8f962ull, 0xb20b117e813dfa04ull, 0xb20b117e813dfa04ull,
    0xb20b117e813dfa04ull, 0xb20b117e813dfa04ull, 0xa7a765ba75d8f962ull,
    0xa7a765ba75d8f962ull, 0xa7a765ba75d8f962ull, 0xa7a765ba75d8f962ull,
    0xb20b117e813dfa04ull, 0xb20b117e813dfa04ull, 0xb20b117e813dfa04ull,
    0xb20b117e813dfa04ull, 0x2b65d28006178f31ull, 0x2b65d28006178f31ull,
    0x2b65d28006178f31ull, 0x2b65d28006178f31ull, 0xe0bc44f54ad6f322ull,
    0xe0bc44f54ad6f322ull, 0xe0bc44f54ad6f322ull, 0xe0bc44f54ad6f322ull,
    0x3113117b211f6afbull, 0x270a7472bd591cd8ull, 0x79630c903bc9919eull,
    0x153084b6d9540a9eull, 0x533bca90d92c382cull, 0x7ec7bdb094bda003ull,
    0x8ce1d5ecc0cb69f3ull, 0x72bc5518f09e01faull, 0xce5035ee78f11833ull,
    0xce5035ee78f11833ull, 0xce5035ee78f11833ull, 0xce5035ee78f11833ull,
    0x5ef3d904adf530dcull, 0x5ef3d904adf530dcull, 0x5ef3d904adf530dcull,
    0x5ef3d904adf530dcull, 0x63d7f092908bb452ull, 0xce395b235ce6fbaeull,
    0xcbb67f6a6a11ff8bull, 0x094cdf9273824139ull, 0x64af24f18220e0a0ull,
    0x79ff752ee31c8660ull, 0xf05e281ead6191ebull, 0xbbb9a6d4ab39c4c6ull,
    0x8a7d3a6b1274c736ull, 0x384b12a5b2206d24ull, 0x56840a9874efc788ull,
    0xbda3b540a3fecb79ull, 0x12db13aad61e29f9ull, 0x89bb0c1017ea1dd3ull,
    0x2bc260d65fedf0acull, 0x96808f14cafef922ull, 0x295b49e814f9ee63ull,
    0xa6ab73a4564886bcull, 0x295b49e814f9ee63ull, 0xa6ab73a4564886bcull,
    0x1d5fd687d47e5636ull, 0xa6117eb90a5a8578ull, 0x1d5fd687d47e5636ull,
    0xa6117eb90a5a8578ull, 0xb377d4b89bf2f3bfull, 0x9e997a4c5537cbb1ull,
    0x294bb9f7ccf5da37ull, 0x362df53bcc9f82dcull, 0x02796cb71913d6ffull,
    0x760469c63e4a73b1ull, 0x6c75c36daa5cb432ull, 0xfede0f825ef97494ull,
    0x2faf9ba8ec459b5eull, 0xb3399a468154fd2dull, 0x37d5f04bcbf1cf8dull,
    0x2f430be1808337faull, 0x5ff2fabd33a01afdull, 0xe013446ac3232ab6ull,
    0x78a636ecc621e2c3ull, 0x5941bd4a79b3d064ull, 0xd751bc899e018930ull,
    0xb1ed3a2e592baafdull, 0xdf6f54b6d6bbb3faull, 0x09d2ff931dafe61aull,
    0xea1fbf24ff65ca9bull, 0x147907004bdedd28ull, 0xde84f86ce4f09a19ull,
    0x290acee5a4672936ull, 0x04fa6641ef97c31aull, 0x3cd24fea95559bbdull,
    0x5393a856c556d8e5ull, 0xb3562223ad62e0a2ull, 0x043649fae7a9e123ull,
    0xd8d540825c2cf4d0ull, 0x19d51dc694e9bc27ull, 0x089b8df5f0d4062aull,
    0xc39cbd7422302ae3ull, 0x4f0e4bf36ef8b6adull, 0x93bf24051242a92cull,
    0xe4ec051c00941f8full, 0x87cdd0938ee7e6c6ull, 0xd4011c94d0a68083ull,
    0xda434ae587d67554ull, 0xee13a2784c2acc7eull, 0x633c84e23b0ecfc5ull,
    0xa744f53b9b4d4aebull, 0x3c338fe1e50bb52eull, 0xa965bccfcdd70058ull,
    0x14aff8400b6e6908ull, 0x137bccdbb725bc52ull, 0x9f4d81ce49e53395ull,
    0x80a37d101fe4048bull, 0x2c99afb3a74dc3faull, 0x98b23f6772dbdfbaull,
    0xa234105ebf1e1e3cull, 0x24cfe1267f722f7aull, 0x13a43d6aa1f1f4dbull,
    0x2486b14faa69d9edull, 0xb86bb93f13747776ull, 0x599db60d6e189989ull,
    0x38638fe9dc32115dull, 0xb8fa492b174dfa8bull, 0xe4c54a298b250518ull,
    0xb0bec5f0ec0d138full, 0x3ce5a9a2903ef988ull, 0xeedfd6431ee5dc5dull,
    0x795f02f3c80655eeull, 0xe10875f046ecb593ull, 0xcd74c8f93dc54c3bull,
    0x31d14d0a47380317ull, 0xdcab10807ff2f465ull, 0xa265637790bed325ull,
    0x9d751d9ec56d6972ull, 0x3c0921e6066241b1ull, 0xcf5c23d3d9da4715ull,
    0xc4a19950cb47f2dbull, 0x238fea0a1bcc3035ull, 0x3aa0b166c699fe03ull,
    0xe62e6ae3100df7bcull, 0x3d967129badf7910ull, 0x3af92a74bdbc0d4full,
    0xd2ad5e7651283724ull, 0x058c3baad89d30e9ull, 0x800c89e1d9c90b13ull,
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
  EXPECT_EQ(feed.silence_of(0), 0);
  feed.record_step(0);
  feed.record_step(0);
  feed.record_step(1);
  EXPECT_EQ(feed.total_steps(), 3);
  EXPECT_EQ(feed.steps_of(0), 2);
  EXPECT_EQ(feed.silence_of(0), 1);  // one step since pid 0's last
  EXPECT_EQ(feed.silence_of(1), 0);
  EXPECT_EQ(feed.silence_of(2), 3);  // never stepped
  // window_age of a set = the youngest member silence (a P-free window
  // is open only while every member is silent).
  EXPECT_EQ(feed.window_age(ProcSet::of({0, 2})), 1);
  EXPECT_EQ(feed.window_age(ProcSet::of({2})), 3);
  EXPECT_EQ(feed.max_silence(), 3);
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
