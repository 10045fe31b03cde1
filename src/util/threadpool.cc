#include "util/threadpool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "obs/telemetry.h"
#include "util/check.h"

namespace alphaevolve {
namespace {

/// Pool occupancy metrics, shared by every ThreadPool in the process (the
/// repo runs one per search context; per-pool attribution isn't worth a
/// registry lookup on the submit path). `queue_depth` tracks the short-lived
/// queue only; `tasks_helped` counts tasks drained by non-worker threads
/// through TryRunOneTask — the helping-wait steal counter (both ParallelFor
/// joins and TaskGroup waits land there).
struct PoolMetrics {
  obs::Gauge& queue_depth;
  obs::Counter& submitted;
  obs::Counter& helped;

  static PoolMetrics& Get() {
    static PoolMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Default();
      return new PoolMetrics{reg.GetGauge("threadpool.queue_depth"),
                             reg.GetCounter("threadpool.tasks_submitted"),
                             reg.GetCounter("threadpool.tasks_helped")};
    }();
    return *m;
  }
};

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  AE_CHECK(num_threads >= 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    AE_CHECK(!shutdown_);
    queue_.push_back(std::move(task));
  }
  if (obs::Enabled()) {
    PoolMetrics& m = PoolMetrics::Get();
    m.submitted.Add();
    m.queue_depth.Add(1);
  }
  cv_task_.notify_one();
}

void ThreadPool::SubmitLongLived(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    AE_CHECK(!shutdown_);
    long_lived_queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  if (obs::Enabled()) {
    PoolMetrics& m = PoolMetrics::Get();
    m.helped.Add();
    m.queue_depth.Add(-1);
  }
  task();
  return true;
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  // Every lane pulls indices from one shared counter; the caller is a lane,
  // so helpers beyond n - 1 would find nothing to claim. The join is a
  // helping TaskGroup wait: a helper still queued behind other work (or
  // behind us, if we are ourselves a pool task) gets drained by this thread,
  // which is what makes nested ParallelFor calls deadlock-free. The group's
  // WaitAll returns only after every helper body has, so capturing `next`
  // and `fn` by reference is safe.
  std::atomic<int> next{0};
  auto lane = [&next, n, &fn] {
    int i;
    while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) fn(i);
  };
  TaskGroup helpers(this);
  for (int h = std::min(num_threads(), n - 1); h > 0; --h) {
    helpers.Submit(lane);
  }
  lane();
  helpers.WaitAll();
}

// --------------------------------------------------------------- ShardArena

namespace {

/// Polite busy-wait: keeps the core's pipeline quiet while watching an
/// atomic that another thread is about to flip.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("pause" ::: "memory");
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Spin budgets before falling back to the condvar. Segments arrive
/// back-to-back in the executor's date loop, so the common case is caught
/// within the spin; the condvar bounds the cost when it is not (e.g. the
/// driver is inside a serial relation op, or the box has one core).
constexpr int kHelperSpinIters = 4096;
constexpr int kDriverSpinIters = 1024;

}  // namespace

/// Shared between the driver and the helper loops. Round inputs (fn, n) are
/// written under `mu` before the epoch advances; helpers read them under
/// `mu` after observing the new epoch, so no round input is ever read
/// without a happens-before edge. Work claiming is lock-free: `next` packs
/// (epoch tag << 32 | index), and a claim only succeeds when the tag matches
/// the round the claimant joined — a helper that oversleeps a round can
/// increment nothing and touch no stale closure.
struct ShardArena::State {
  std::mutex mu;
  std::condition_variable cv_work;  ///< helpers: new epoch or shutdown
  std::condition_variable cv_done;  ///< driver: all n items finished
  const std::function<void(int)>* fn = nullptr;  // guarded by mu
  int n = 0;                                     // guarded by mu
  uint64_t epoch = 0;                            // guarded by mu
  bool shutdown = false;                         // guarded by mu
  std::atomic<uint64_t> epoch_spin{0};  ///< epoch mirror for helper spinning
  std::atomic<uint64_t> next{0};        ///< (epoch tag << 32) | next index
  std::atomic<int> done{0};             ///< items finished this round

  /// Claims the next index of the round identified by `tag`, or -1 when the
  /// round is exhausted or no longer current.
  int Claim(uint64_t tag, int n_round) {
    uint64_t cur = next.load(std::memory_order_relaxed);
    for (;;) {
      if ((cur >> 32) != tag) return -1;
      const int i = static_cast<int>(cur & 0xffffffffULL);
      if (i >= n_round) return -1;
      if (next.compare_exchange_weak(cur, cur + 1,
                                     std::memory_order_relaxed)) {
        return i;
      }
    }
  }

  /// Marks one item finished; wakes the driver on the last one. The empty
  /// critical section pairs with the driver's predicate check under `mu` so
  /// the final notify cannot slip between its check and its wait.
  void FinishItem(int n_round) {
    if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n_round) {
      { std::lock_guard<std::mutex> lk(mu); }
      cv_done.notify_all();
    }
  }
};

ShardArena::ShardArena(ThreadPool* pool, int max_helpers)
    : state_(std::make_shared<State>()) {
  if (pool == nullptr || max_helpers <= 0) return;
  num_helpers_ = std::min(max_helpers, pool->num_threads());
  for (int h = 0; h < num_helpers_; ++h) {
    // Each helper owns a reference to the state, so the arena can be
    // destroyed without waiting for helpers that are still parked (they wake
    // on shutdown and drop their reference on exit). Long-lived submission
    // keeps the loops out of reach of ParallelFor's queue drain — a thread
    // briefly helping another round must not get parked here for a whole
    // Run.
    std::shared_ptr<State> state = state_;
    pool->SubmitLongLived([state] { HelperLoop(state); });
  }
}

ShardArena::~ShardArena() {
  {
    std::lock_guard<std::mutex> lk(state_->mu);
    state_->shutdown = true;
    // Sentinel the spin mirror too (no epoch ever reaches ~0), so a helper
    // scheduled after shutdown — or parked mid-spin — bails on its first
    // spin check instead of burning the whole spin budget first.
    state_->epoch_spin.store(~uint64_t{0}, std::memory_order_release);
  }
  state_->cv_work.notify_all();
}

void ShardArena::HelperLoop(const std::shared_ptr<State>& state) {
  State& s = *state;
  uint64_t seen = 0;
  for (;;) {
    bool epoch_advanced = false;
    for (int spin = 0; spin < kHelperSpinIters; ++spin) {
      if (s.epoch_spin.load(std::memory_order_acquire) != seen) {
        epoch_advanced = true;
        break;
      }
      CpuRelax();
    }
    const std::function<void(int)>* fn;
    int n;
    uint64_t tag;
    {
      std::unique_lock<std::mutex> lk(s.mu);
      if (!epoch_advanced) {
        s.cv_work.wait(lk, [&] { return s.shutdown || s.epoch != seen; });
      }
      if (s.shutdown) return;  // never set while a round has unfinished work
      seen = s.epoch;
      fn = s.fn;
      n = s.n;
      tag = seen & 0xffffffffULL;
    }
    int i;
    while ((i = s.Claim(tag, n)) >= 0) {
      (*fn)(i);
      s.FinishItem(n);
    }
  }
}

void ShardArena::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  State& s = *state_;
  if (num_helpers_ == 0 || n == 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  uint64_t tag;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    s.fn = &fn;
    s.n = n;
    ++s.epoch;
    tag = s.epoch & 0xffffffffULL;
    s.done.store(0, std::memory_order_relaxed);
    s.next.store(tag << 32, std::memory_order_relaxed);
    s.epoch_spin.store(s.epoch, std::memory_order_release);
  }
  s.cv_work.notify_all();

  int i;
  while ((i = s.Claim(tag, n)) >= 0) {
    fn(i);
    s.done.fetch_add(1, std::memory_order_acq_rel);
  }

  // All indices are claimed; wait for helpers still inside their last item.
  // Helpers are optional (they may not have started), but then every item
  // was run — and counted — by this thread, so `done` is already n.
  for (int spin = 0; spin < kDriverSpinIters; ++spin) {
    if (s.done.load(std::memory_order_acquire) == n) return;
    CpuRelax();
  }
  std::unique_lock<std::mutex> lk(s.mu);
  s.cv_done.wait(lk,
                 [&] { return s.done.load(std::memory_order_acquire) == n; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] {
        return shutdown_ || !queue_.empty() || !long_lived_queue_.empty();
      });
      // Short-lived work first: parking on a long-lived task (an arena
      // helper loop) is only worthwhile once nothing else needs the thread.
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop_front();
        if (obs::Enabled()) PoolMetrics::Get().queue_depth.Add(-1);
      } else if (!long_lived_queue_.empty()) {
        task = std::move(long_lived_queue_.front());
        long_lived_queue_.pop_front();
      } else {
        if (shutdown_) return;
        continue;
      }
    }
    task();
  }
}

}  // namespace alphaevolve
