#include "util/threadpool.h"

#include <algorithm>
#include <atomic>

#include "obs/telemetry.h"
#include "util/check.h"

namespace alphaevolve {
namespace {

/// Pool occupancy metrics, shared by every ThreadPool in the process (the
/// repo runs one per search context; per-pool attribution isn't worth a
/// registry lookup on the submit path). `queue_depth` tracks the queue;
/// `tasks_helped` counts tasks drained by non-worker threads
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

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown, queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
      if (obs::Enabled()) PoolMetrics::Get().queue_depth.Add(-1);
    }
    task();
  }
}

}  // namespace alphaevolve
