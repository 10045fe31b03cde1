#include "core/evaluator_pool.h"

#include <algorithm>
#include <atomic>

#include "obs/trace.h"
#include "util/check.h"

namespace alphaevolve::core {

EvaluatorPool::EvaluatorPool(const market::Dataset& dataset,
                             EvaluatorConfig config, int num_threads)
    : dataset_(dataset), config_(config), num_threads_(num_threads) {
  AE_CHECK(num_threads >= 1);
  if (num_threads > 1) thread_pool_ = std::make_unique<ThreadPool>(num_threads);
}

Evaluator* EvaluatorPool::Acquire() {
  // Lease-wait: lock contention plus (first time per worker) the evaluator
  // construction itself. A fat p99 here means workers fight over leases.
  AE_SPAN("pool.lease_acquire");
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.empty()) {
    if (obs::Enabled()) {
      static obs::Counter& created =
          obs::MetricsRegistry::Default().GetCounter("pool.evaluators_created");
      created.Add();
    }
    evaluators_.emplace_back(dataset_, config_);
    return &evaluators_.back();
  }
  Evaluator* evaluator = free_.back();
  free_.pop_back();
  return evaluator;
}

void EvaluatorPool::Release(Evaluator* evaluator) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(evaluator);
}

void EvaluatorPool::ForEach(int n,
                            const std::function<void(Evaluator&, int)>& fn) {
  if (n <= 0) return;
  AE_SPAN("pool.foreach");
  const int workers = thread_pool_ == nullptr ? 1 : std::min(num_threads_, n);
  if (workers <= 1) {
    Lease lease(*this);
    for (int i = 0; i < n; ++i) fn(*lease, i);
    return;
  }
  // Work stealing: items are claimed one at a time from a shared counter,
  // so uneven per-item cost (mixed probe/full batches) cannot strand whole
  // stripes behind one slow worker. Each worker holds one lease for its
  // lifetime; item order within a worker is irrelevant because every fn(i)
  // is independent and deterministic.
  std::atomic<int> next{0};
  thread_pool_->ParallelFor(workers, [&](int) {
    Lease lease(*this);
    int i;
    while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) {
      fn(*lease, i);
    }
  });
}

void EvaluatorPool::ForEachAsync(int n,
                                 std::function<void(Evaluator&, int)> fn,
                                 TaskGroup& group) {
  if (n <= 0) return;
  if (thread_pool_ == nullptr) {
    Lease lease(*this);
    for (int i = 0; i < n; ++i) fn(*lease, i);
    return;
  }
  // Same work-stealing shape as ForEach, minus the caller's lane: each
  // submitted worker leases an evaluator and pulls indices from a shared
  // counter until the batch is exhausted. The counter is owned by the tasks
  // (shared_ptr) because the submitting frame returns immediately.
  auto next = std::make_shared<std::atomic<int>>(0);
  const int workers = std::min(num_threads_, n);
  for (int w = 0; w < workers; ++w) {
    group.Submit([this, n, fn, next] {
      Lease lease(*this);
      int i;
      while ((i = next->fetch_add(1, std::memory_order_relaxed)) < n) {
        fn(*lease, i);
      }
    });
  }
}

}  // namespace alphaevolve::core
