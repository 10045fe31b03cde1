// ShardArena: the executor's persistent per-Run worker arena. These tests
// pin down the properties the fused executor relies on — every round covers
// every index exactly once, thousands of back-to-back rounds (one per
// segment) stay correct, helpers are optional (a saturated or absent pool
// degrades to the caller running everything), and arenas nest under pool
// tasks the way EvaluatorPool-driven executors nest their shard fan-out.
// The CI TSan job runs this file to certify the epoch barrier data-race
// free.

#include "util/threadpool.h"

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

namespace alphaevolve {
namespace {

TEST(ShardArenaTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  ShardArena arena(&pool, 3);
  std::vector<std::atomic<int>> hits(257);
  arena.ParallelFor(257, [&](int i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ShardArenaTest, ManyBackToBackRoundsStayCorrect) {
  // One round per executor segment: a Run issues hundreds to thousands.
  ThreadPool pool(4);
  ShardArena arena(&pool, 4);
  std::atomic<long> sum{0};
  long expected = 0;
  for (int round = 0; round < 3000; ++round) {
    const int n = 1 + round % 7;
    arena.ParallelFor(n, [&](int i) { sum.fetch_add(i + 1); });
    expected += static_cast<long>(n) * (n + 1) / 2;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ShardArenaTest, NullPoolRunsInline) {
  ShardArena arena(nullptr, 8);
  EXPECT_EQ(arena.num_helpers(), 0);
  std::vector<int> hits(31, 0);
  arena.ParallelFor(31, [&](int i) { hits[static_cast<size_t>(i)]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ShardArenaTest, ZeroAndNegativeHelpersRunInline) {
  ThreadPool pool(2);
  ShardArena zero(&pool, 0);
  EXPECT_EQ(zero.num_helpers(), 0);
  int count = 0;
  zero.ParallelFor(5, [&](int) { ++count; });
  EXPECT_EQ(count, 5);
  ShardArena negative(&pool, -3);
  EXPECT_EQ(negative.num_helpers(), 0);
}

TEST(ShardArenaTest, HelperCountCappedAtPoolSize) {
  ThreadPool pool(2);
  ShardArena arena(&pool, 16);
  EXPECT_EQ(arena.num_helpers(), 2);
}

TEST(ShardArenaTest, EdgeCountsAndSingleItemRounds) {
  ThreadPool pool(2);
  ShardArena arena(&pool, 2);
  std::atomic<int> counter{0};
  arena.ParallelFor(0, [&](int) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
  arena.ParallelFor(-2, [&](int) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
  arena.ParallelFor(1, [&](int) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 1);
}

TEST(ShardArenaTest, MoreItemsThanLanesAndFewerItemsThanLanes) {
  ThreadPool pool(4);
  ShardArena arena(&pool, 4);
  std::vector<std::atomic<int>> wide(1000);
  arena.ParallelFor(1000, [&](int i) { wide[static_cast<size_t>(i)]++; });
  for (const auto& h : wide) EXPECT_EQ(h.load(), 1);
  std::vector<std::atomic<int>> narrow(2);
  arena.ParallelFor(2, [&](int i) { narrow[static_cast<size_t>(i)]++; });
  for (const auto& h : narrow) EXPECT_EQ(h.load(), 1);
}

TEST(ShardArenaTest, SaturatedPoolDegradesToCallerWithoutDeadlock) {
  // Occupy every pool thread so the arena's helper loops cannot start until
  // after the rounds have already completed on the caller.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  TaskGroup blockers(&pool);
  for (int i = 0; i < 2; ++i) {
    blockers.Submit([&release] {
      while (!release.load()) std::this_thread::yield();
    });
  }
  {
    ShardArena arena(&pool, 2);
    std::atomic<int> counter{0};
    for (int round = 0; round < 10; ++round) {
      arena.ParallelFor(8, [&](int) { counter.fetch_add(1); });
    }
    EXPECT_EQ(counter.load(), 80);
  }
  release.store(true);
  blockers.WaitAll();
}

TEST(ShardArenaTest, NestsInsidePoolTasksLikeEvaluatorPoolDoes) {
  // EvaluatorPool runs evaluations as pool tasks; each evaluation's Run
  // parks its own arena on the same pool. Drivers must make progress even
  // when all their helpers are parked elsewhere or queued.
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.ParallelFor(4, [&](int outer) {
    ShardArena arena(&pool, 2);
    for (int round = 0; round < 50; ++round) {
      arena.ParallelFor(16, [&](int i) { sum.fetch_add(outer + i); });
    }
  });
  // 4 outer drivers x 50 rounds x (sum of outer*16 + 0..15).
  long expected = 0;
  for (int outer = 0; outer < 4; ++outer) {
    expected += 50L * (16L * outer + 120L);
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ShardArenaTest, SequentialArenasOnOnePoolReleaseHelpers) {
  // One arena per executor Run: thousands of short-lived arenas must not
  // leak helpers or wedge the pool (the pool destructor at test end joins
  // its workers, which requires every helper loop to have exited).
  ThreadPool pool(2);
  for (int run = 0; run < 500; ++run) {
    ShardArena arena(&pool, 2);
    std::atomic<int> counter{0};
    arena.ParallelFor(4, [&](int) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 4);
  }
}

TEST(ShardArenaTest, TaskGroupWaitDoesNotBlockOnParkedHelpers) {
  // A TaskGroup waits for its own submissions only — a live arena's parked
  // helper loops must not hold it, or the evolution driver waiting for a
  // batch on a shared pool would stall for a whole executor Run. One worker
  // stays free for the side task (a parked helper does occupy its worker).
  ThreadPool pool(2);
  ShardArena arena(&pool, 1);
  arena.ParallelFor(4, [](int) {});
  std::atomic<int> side{0};
  TaskGroup group(&pool);
  group.Submit([&side] { side.store(1); });
  group.WaitAll();  // a helper stays parked; must return anyway
  EXPECT_EQ(side.load(), 1);
}

TEST(ShardArenaTest, ParallelForDrainNeverAdoptsHelperLoops) {
  // A ParallelFor caller drains the pool queue while waiting for its own
  // helpers. It must skip arena helper loops (long-lived tasks): adopting
  // one would park it until the arena shuts down — here the arena outlives
  // the ParallelFor call, so adoption would deadlock this test.
  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  pool.Submit([&started, &release] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  // Pin the blocker to the worker before queueing anything else, so the
  // only adoptable queue entries below are the arena loop + our helper.
  while (!started.load()) std::this_thread::yield();
  ShardArena arena(&pool, 1);  // helper loop queued while the worker is busy
  std::atomic<int> counter{0};
  pool.ParallelFor(3, [&](int) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
  release.store(true);
}

TEST(ShardArenaTest, DestructionWithParkedHelpersIsClean) {
  ThreadPool pool(3);
  {
    ShardArena arena(&pool, 3);
    arena.ParallelFor(3, [](int) {});
    // Helpers are parked on the epoch barrier here; the destructor must
    // wake and release them without waiting for anything else.
  }
  // The pool's destructor joins its workers, which requires every helper
  // loop to have exited.
}

}  // namespace
}  // namespace alphaevolve
