#include "util/threadpool.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace alphaevolve {
namespace {

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 200; ++i) {
    group.Submit([&counter] { counter.fetch_add(1); });
  }
  group.WaitAll();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&](int i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForHandlesEdgeCounts) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(0, [&](int) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
  pool.ParallelFor(-3, [&](int) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 0);
  pool.ParallelFor(1, [&](int) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, NestedSubmitFromTaskCompletes) {
  ThreadPool pool(1);  // single worker: the nested task queues behind us
  std::atomic<int> counter{0};
  TaskGroup outer(&pool);
  outer.Submit([&] {
    counter.fetch_add(1);
    // The nested group's wait drains its own task off the queue, so it
    // cannot deadlock behind the one worker it is running on.
    TaskGroup inner(&pool);
    inner.Submit([&] { counter.fetch_add(10); });
  });
  outer.WaitAll();
  EXPECT_EQ(counter.load(), 11);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Every outer iteration runs its own inner ParallelFor on the same pool —
  // the pattern of concurrent searches that each score batches in parallel.
  // With fewer workers than outer iterations, naive waiting would deadlock.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(6, [&](int) {
    pool.ParallelFor(8, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 6 * 8);
}

TEST(ThreadPoolTest, DeeplyNestedParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(3, [&](int) {
    pool.ParallelFor(3, [&](int) {
      pool.ParallelFor(3, [&](int) { total.fetch_add(1); });
    });
  });
  EXPECT_EQ(total.load(), 27);
}

TEST(ThreadPoolTest, ParallelForFromSubmittedTaskCompletes) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  TaskGroup group(&pool);
  for (int t = 0; t < 4; ++t) {
    group.Submit([&] {
      pool.ParallelFor(16, [&](int) { total.fetch_add(1); });
    });
  }
  group.WaitAll();
  EXPECT_EQ(total.load(), 4 * 16);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1);
      });
    }
    // No wait: the destructor must finish the queue before joining.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ManyWaitersInterleave) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(100, [&](int i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 20L * (99L * 100 / 2));
}

TEST(TaskGroupTest, WaitUntilSeesPartialCompletions) {
  // The hazard-resolution primitive: a waiter can observe a task's
  // Notify-published partial progress before the task (or its siblings)
  // complete. Whether the waiter is woken by Notify or drains the task
  // inline, WaitUntil must return as soon as the predicate holds.
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> progress{0};
  for (int t = 0; t < 3; ++t) {
    group.Submit([&] {
      for (int i = 0; i < 4; ++i) {
        progress.fetch_add(1, std::memory_order_release);
        group.Notify();
      }
    });
  }
  group.WaitUntil(
      [&] { return progress.load(std::memory_order_acquire) >= 5; });
  EXPECT_GE(progress.load(), 5);
  group.WaitAll();
  EXPECT_EQ(progress.load(), 12);
}

}  // namespace
}  // namespace alphaevolve
