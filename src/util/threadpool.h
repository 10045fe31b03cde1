#ifndef ALPHAEVOLVE_UTIL_THREADPOOL_H_
#define ALPHAEVOLVE_UTIL_THREADPOOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace alphaevolve {

/// Fixed-size worker pool for coarse-grained parallelism (batched candidate
/// evaluation, independent search rounds, grid-search cells, seed sweeps):
/// no Executor or Evaluator spawns threads of its own. Tasks are plain
/// `std::function<void()>`; exceptions escaping a task terminate the process
/// (tasks are expected to handle their own errors). Completion is waited
/// for through a TaskGroup (or ParallelFor, which joins through one).
///
/// `ParallelFor` is re-entrant: it may be called from inside a pool task
/// (e.g. a concurrent search that itself evaluates batches in parallel).
/// The calling thread always runs one lane of the loop and joins its
/// helpers through a TaskGroup wait, which drains other queued tasks
/// instead of blocking, so nested parallel sections cannot deadlock the
/// pool.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(int num_threads);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution. Safe to call from inside a task.
  void Submit(std::function<void()> task);

  /// Number of worker threads.
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion:
  /// the caller's lane plus min(num_threads(), n - 1) helper lanes submitted
  /// to a TaskGroup, all claiming indices from one shared counter. Safe to
  /// call from inside a pool task (see class comment).
  void ParallelFor(int n, const std::function<void(int)>& fn);

  /// Pops and runs one queued task on the calling thread; returns false if
  /// none was available. This is the "help instead of blocking" primitive
  /// behind TaskGroup::WaitUntil (and so behind ParallelFor's join): work
  /// submitted by a thread that then waits can never deadlock behind a full
  /// pool.
  bool TryRunOneTask();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  bool shutdown_ = false;
};

/// Completion tracking for tasks submitted to a ThreadPool by one driving
/// thread — the join behind ParallelFor, the evolution driver's
/// asynchronous evaluation batches (EvaluatorPool::ForEachAsync) and
/// ScenarioFitness's regime fan-out, and the only completion wait on a
/// pool. A TaskGroup scopes waiting to its own submissions — never to other
/// work on the pool — and supports waiting on arbitrary intermediate
/// conditions ("this one candidate's fitness landed"), not just full drain.
///
/// Waiting helps: while a condition is unmet, the waiter drains queued pool
/// tasks (ThreadPool::TryRunOneTask) instead of parking, so a group whose
/// tasks are still stuck behind other work — including the waiter's own
/// enclosing pool task in a nested/concurrent-search setting — always makes
/// progress. Only when the queue is empty (every submitted task is running
/// or done, and will therefore signal) does the waiter sleep on the group's
/// condition variable.
///
/// Single-submitter: one thread calls Submit/WaitUntil/WaitAll; tasks on any
/// thread may call Notify. The destructor waits for all submitted tasks, so
/// state captured by reference from the submitter's frame outlives every
/// task body. The sync state itself is shared-owned by each in-flight
/// wrapper: a waiter that observes the final completion through the atomic
/// may destroy the group while the last wrapper is still inside its
/// post-completion notify, which must therefore never touch the group.
class TaskGroup {
 public:
  /// `pool == nullptr` is valid: Submit then runs the task inline on the
  /// caller (the degenerate serial pipeline).
  explicit TaskGroup(ThreadPool* pool)
      : pool_(pool), state_(std::make_shared<State>()) {}

  ~TaskGroup() { WaitAll(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `task` on the pool (or runs it inline when poolless). The
  /// group's counters observe its completion; Wait* and Notify wake-ups see
  /// every memory effect of completed tasks.
  void Submit(std::function<void()> task) {
    ++submitted_;
    if (pool_ == nullptr) {
      task();
      return;
    }
    pool_->Submit([state = state_, task = std::move(task)] {
      task();
      state->completed.fetch_add(1, std::memory_order_release);
      NotifyState(*state);
    });
  }

  /// Wakes any waiter so its predicate re-checks. Call from inside a task
  /// after publishing a partial result (e.g. one item of a work-stealing
  /// batch) with release ordering; WaitUntil's predicate runs either under
  /// the group mutex or after draining a task, so a published flag read with
  /// acquire ordering is never missed. Must be called before the enclosing
  /// task body returns (the group is only guaranteed alive until then).
  void Notify() { NotifyState(*state_); }

  /// Blocks until pred() is true, draining queued pool tasks while waiting.
  /// `pred` must be monotone (once true, stays true), satisfied by the
  /// completion — or a Notify-published partial result — of tasks already
  /// submitted to this group, and lock-free (read atomics: it runs with the
  /// group mutex held).
  void WaitUntil(const std::function<bool()>& pred) {
    State& s = *state_;
    for (;;) {
      if (pred()) return;
      if (pool_ != nullptr && pool_->TryRunOneTask()) continue;
      // Queue empty: every task of ours is running or done and will notify.
      std::unique_lock<std::mutex> lock(s.mu);
      if (pred()) return;
      s.cv.wait(lock);
      // Re-check and go back to draining: the wake-up may have been for a
      // different condition, and new helpable work may have been queued.
    }
  }

  /// Blocks until every task submitted so far has finished (helping).
  void WaitAll() {
    if (pool_ == nullptr) return;  // inline tasks finished inside Submit
    const int64_t target = submitted_;
    State& s = *state_;
    WaitUntil([&s, target] {
      return s.completed.load(std::memory_order_acquire) >= target;
    });
  }

 private:
  /// Owned jointly by the group and every in-flight wrapper, so the final
  /// notify outlives the group.
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<int64_t> completed{0};
  };

  /// The empty critical section pairs with the waiter's predicate check
  /// under `mu`: a final completion published between that check and the
  /// wait cannot have its notify slip in between.
  static void NotifyState(State& s) {
    { std::lock_guard<std::mutex> lock(s.mu); }
    s.cv.notify_all();
  }

  ThreadPool* pool_;
  std::shared_ptr<State> state_;
  int64_t submitted_ = 0;  ///< submitter thread only
};

}  // namespace alphaevolve

#endif  // ALPHAEVOLVE_UTIL_THREADPOOL_H_
