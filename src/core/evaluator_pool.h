#ifndef ALPHAEVOLVE_CORE_EVALUATOR_POOL_H_
#define ALPHAEVOLVE_CORE_EVALUATOR_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/evaluator.h"
#include "market/dataset.h"
#include "util/threadpool.h"

namespace alphaevolve::core {

/// A pool of per-worker `Evaluator`s (each owning its two `Executor`s) over
/// one shared immutable `Dataset`, plus the `ThreadPool` that drives batched
/// scoring. `Evaluator` is not thread-safe, so concurrent batch workers each
/// check one out for the duration of their chunk; evaluators are created
/// lazily on first demand and reused afterwards, so concurrent searches
/// sharing one pool never contend on executor scratch state.
///
/// Parallelism has one level: `num_threads` caps how many candidates are
/// scored concurrently, and each candidate runs on the one thread that
/// leased its evaluator. With `num_threads == 1` no threads are spawned and
/// every batched call runs inline on the caller — the serial path stays
/// allocation- and synchronization-free in the hot loop.
///
/// The evaluation watchdog rides the shared config: set
/// `config.eval_budget_seconds > 0` and every leased evaluator abandons
/// over-budget candidates (invalid + timed_out) instead of letting one
/// pathological program stall a whole batch of workers.
class EvaluatorPool {
 public:
  EvaluatorPool(const market::Dataset& dataset, EvaluatorConfig config,
                int num_threads = 1);

  EvaluatorPool(const EvaluatorPool&) = delete;
  EvaluatorPool& operator=(const EvaluatorPool&) = delete;

  int num_threads() const { return num_threads_; }
  const market::Dataset& dataset() const { return dataset_; }
  const EvaluatorConfig& config() const { return config_; }

  /// The driving pool; nullptr when fully serial (num_threads == 1).
  ThreadPool* thread_pool() { return thread_pool_.get(); }

  /// RAII checkout of one evaluator (used by workers and by callers that
  /// need a scalar evaluation, e.g. final-winner re-scoring).
  class Lease {
   public:
    explicit Lease(EvaluatorPool& pool)
        : pool_(pool), evaluator_(pool.Acquire()) {}
    ~Lease() { pool_.Release(evaluator_); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Evaluator& operator*() { return *evaluator_; }
    Evaluator* operator->() { return evaluator_; }

   private:
    EvaluatorPool& pool_;
    Evaluator* evaluator_;
  };

  /// Runs fn(evaluator, i) for i in [0, n) over up to num_threads()
  /// concurrent workers, each with its own leased evaluator. Indices are
  /// claimed from a shared atomic counter (work stealing), so a worker that
  /// drew cheap items (probe fingerprints, cache-hit short-circuits) keeps
  /// pulling work instead of idling behind a worker stuck on expensive full
  /// evaluations. Results are independent of the thread count: each fn(i)
  /// is deterministic in its item and evaluators share no mutable state.
  /// The evolution driver's functional-fingerprint probes run on it.
  void ForEach(int n, const std::function<void(Evaluator&, int)>& fn);

  /// Non-blocking ForEach: submits up to num_threads() work-stealing worker
  /// tasks into `group` and returns immediately — the caller keeps the
  /// driving thread for other work (the evolution driver generates the next
  /// batch) while the items are scored. Wait on the group (WaitAll, or
  /// WaitUntil plus per-item flags published by `fn` and group.Notify()) for
  /// completion.
  /// `fn` is copied into the workers; state it captures must stay alive
  /// until the group drains. With no thread pool (fully serial pool) the
  /// items run inline before returning, so the call degrades to ForEach.
  void ForEachAsync(int n, std::function<void(Evaluator&, int)> fn,
                    TaskGroup& group);

 private:
  friend class Lease;
  Evaluator* Acquire();
  void Release(Evaluator* evaluator);

  const market::Dataset& dataset_;
  EvaluatorConfig config_;
  int num_threads_;
  std::unique_ptr<ThreadPool> thread_pool_;

  std::mutex mu_;
  std::deque<Evaluator> evaluators_;  // deque: stable addresses
  std::vector<Evaluator*> free_;
};

}  // namespace alphaevolve::core

#endif  // ALPHAEVOLVE_CORE_EVALUATOR_POOL_H_
