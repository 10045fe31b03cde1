#ifndef ALPHAEVOLVE_SERVICE_ALPHA_SERVICE_H_
#define ALPHAEVOLVE_SERVICE_ALPHA_SERVICE_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator_pool.h"
#include "core/executor.h"
#include "market/dataset.h"
#include "market/types.h"
#include "service/job_supervisor.h"
#include "service/op_queue.h"
#include "service/protocol.h"

namespace alphaevolve::service {

/// Everything a resident service instance pins at construction.
struct ServiceOptions {
  /// Simulated panel the daemon owns (one dataset, one evaluator pool,
  /// shared by every search and lookup for the process lifetime).
  int num_stocks = 24;
  int num_days = 220;
  uint64_t data_seed = 13;
  int eval_threads = 2;

  /// Intake: bounded command queue + op worker threads. A full queue is a
  /// structured rejection at admission, never a blocked intake thread.
  size_t queue_capacity = 64;
  int op_workers = 2;
  /// Applied to ops that carry no deadline_ms of their own (0 = none). The
  /// constructor refuses a value outside [0, kMaxDeadlineMs].
  double default_deadline_ms = 0.0;

  /// Spec fields submit_search params may override per job.
  JobSpec default_job;
  SupervisorOptions supervisor;
};

/// The resident alpha service: owns the dataset/evaluator pool, supervises
/// search jobs (JobSupervisor), and serves the op catalog over a
/// line-delimited JSON protocol (service/protocol.h):
///
///   submit_search  — queue a supervised evolution job; returns its id
///                    (queue_full while kMaxActiveJobs are pending/running)
///   job_status     — one job's supervision state
///   job_result     — a DONE job's deterministic result (byte-stable across
///                    crash/resume chains: elapsed wall-clock is excluded)
///   list_jobs      — every job, compact
///   cancel_job     — flip the job's token; parks CANCELLED, resumable
///   resume_job     — requeue a CANCELLED/FAILED job from its checkpoint
///   query_alphas   — the mined alpha set: every DONE job's best program
///   signals        — per-date prediction vector of a DONE job's alpha
///   backtest       — re-evaluate a DONE job's alpha (test side included)
///   stress         — evaluate a DONE job's alpha across resimulated
///                    scenario regimes (one fresh panel per regime)
///   health         — liveness/readiness (answered inline, even when the
///                    queue is full or the service is draining)
///   metrics        — metrics-registry snapshot (service.* included)
///   drain          — begin graceful shutdown
///
/// Every queued op carries an absolute deadline; an op picked up past it is
/// answered with a structured deadline_exceeded error, not silently
/// executed late.
class AlphaService {
 public:
  explicit AlphaService(ServiceOptions options);
  /// Drains (idempotent) and joins.
  ~AlphaService();

  AlphaService(const AlphaService&) = delete;
  AlphaService& operator=(const AlphaService&) = delete;

  /// Intake: parses `line`, answers health inline, admits everything else
  /// to the op queue. A line longer than kMaxRequestBytes, or one whose
  /// deadline_ms exceeds kMaxDeadlineMs, is answered with invalid_argument
  /// and never admitted. `respond` is invoked exactly once
  /// with the response line — possibly synchronously (rejections) or from
  /// an op worker. Never blocks on queue capacity.
  void Submit(const std::string& line,
              std::function<void(const std::string&)> respond);

  /// Synchronous convenience for tests and benchmarks: Submit + wait.
  std::string Call(const std::string& line);

  /// Graceful drain: stop intake → finish admitted ops → drain the
  /// supervisor (running jobs checkpoint and park) → flush telemetry
  /// artifacts. Idempotent.
  void Drain();

  /// Set once a `drain` op was admitted; the owning loop (the daemon)
  /// watches this and calls Drain() from its own thread — an op worker
  /// cannot join itself.
  bool drain_requested() const {
    return drain_requested_.load(std::memory_order_acquire);
  }

  /// Most jobs whose prediction matrix the signals op keeps cached.
  static constexpr size_t kSignalsCacheCap = 32;
  /// Jobs currently in the signals cache (never above kSignalsCacheCap).
  size_t signals_cached() const {
    std::lock_guard<std::mutex> lock(signals_mu_);
    return signals_.size();
  }

  JobSupervisor& supervisor() { return supervisor_; }
  const market::Dataset& dataset() const { return dataset_; }
  const ServiceOptions& options() const { return options_; }

 private:
  void WorkerLoop();
  /// Executes one admitted op (deadline already checked).
  std::string Dispatch(const Request& req);

  std::string OpSubmitSearch(const Request& req);
  std::string OpJobStatus(const Request& req);
  std::string OpJobResult(const Request& req);
  std::string OpListJobs(const Request& req);
  std::string OpCancelJob(const Request& req);
  std::string OpResumeJob(const Request& req);
  std::string OpQueryAlphas(const Request& req);
  std::string OpSignals(const Request& req);
  std::string OpBacktest(const Request& req);
  std::string OpStress(const Request& req);
  std::string HealthJson(const std::string& id) const;

  /// The deterministic result JSON served by job_result — the byte-compare
  /// surface of the kill-and-resume smoke.
  static std::string ResultJson(const JobResult& result);

  /// Pruned best program + its fingerprint seed for a DONE job (the exact
  /// (program, seed) pair the search's final metrics used).
  bool BestOf(const std::string& job_id, core::AlphaProgram* pruned,
              uint64_t* seed, std::string* error) const;

  ServiceOptions options_;
  market::MarketConfig market_config_;
  market::Dataset dataset_;
  core::EvaluatorPool pool_;
  JobSupervisor supervisor_;
  OpQueue queue_;
  std::vector<std::thread> op_workers_;
  std::atomic<bool> intake_closed_{false};
  std::atomic<bool> drain_requested_{false};
  std::mutex drain_mu_;
  bool drained_ = false;
  std::chrono::steady_clock::time_point start_;

  /// signals-op cache: job id → full prediction matrix of its best alpha
  /// (computed once per job, then served per date). At most
  /// kSignalsCacheCap jobs, oldest evicted first, so a resident daemon's
  /// memory does not grow with every job it serves; an evicted job is
  /// recomputed on its next lookup.
  mutable std::mutex signals_mu_;
  std::map<std::string, std::shared_ptr<core::ExecutionResult>> signals_;
  std::deque<std::string> signals_order_;  ///< cached job ids, oldest first
};

}  // namespace alphaevolve::service

#endif  // ALPHAEVOLVE_SERVICE_ALPHA_SERVICE_H_
