#ifndef ALPHAEVOLVE_SERVICE_JOB_SUPERVISOR_H_
#define ALPHAEVOLVE_SERVICE_JOB_SUPERVISOR_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/evolution.h"
#include "service/job.h"

namespace alphaevolve::service {

/// Most jobs that may be PENDING or RUNNING at once. Submit refuses the
/// next one (the service answers queue_full, a retryable refusal) until a
/// job finishes, fails or is cancelled.
inline constexpr size_t kMaxActiveJobs = 1024;

/// Supervision policy for search jobs.
struct SupervisorOptions {
  /// Durable root: one directory per job, `<id>/`, holding the job's sealed
  /// record (`job`: spec, state, deadline, and the result once DONE) and its
  /// snapshot stream (`search.g*.ckpt`). Empty runs fully in-memory (tests):
  /// checkpoints are held in RAM and a process restart loses everything, but
  /// in-process resume still works.
  std::string checkpoint_dir;
  int worker_threads = 1;   ///< concurrent searches (they share the pool)
  /// Checkpoint cadence and retention handed to each job's CheckpointWriter.
  int checkpoint_every_batches = 4;
  int checkpoint_keep = 3;
};

/// Runs one (possibly resumed) search attempt. Arguments: the job's spec,
/// the checkpoint sink to install (never null), the snapshot to resume from
/// (null = fresh start), and the cancellation token to install. The function
/// must call the sink's WantCheckpoint at each batch barrier (that call
/// applies the job's deadline rule) and honor the token there (core::Evolution
/// does both), and may throw — a throw parks the job FAILED until resume_job.
using RunFn = std::function<core::EvolutionResult(
    const JobSpec& spec, core::CheckpointSink* sink,
    const core::EvolutionCheckpoint* resume, const std::atomic<bool>* stop)>;

/// Supervises search jobs as crash-recovering state machines:
///
///   PENDING ─→ RUNNING ─→ DONE                   (result in the job's record)
///                 │ ├──→ FAILED     (the attempt threw)  ┐ parked until
///                 │ └──→ CANCELLED  (cancel or deadline) ┘ resume_job
///                 └─(drain)→ PENDING                (next start auto-resumes)
///
/// Every transition is driven by one of two forces: the worker threads and
/// explicit ops (cancel, resume, drain). A worker runs attempts and parks a
/// job that is past its deadline when it dequeues it. While an attempt runs,
/// each batch barrier stops it if the job is past its deadline; a search
/// changes course only at its barriers, so no thread watches it in between.
/// A job never retries itself: a search is a pure function of its spec and
/// its newest snapshot, so a rerun mostly repeats a decided failure. A FAILED
/// job waits for resume_job as a CANCELLED one does, and a transient failure
/// (say std::bad_alloc) reruns only when a client resumes it. Every attempt
/// resumes from the job's newest valid snapshot when one exists (a fresh job
/// has none: ids are never reused), so for candidate-bounded specs the
/// eventual result is bit-identical to an uninterrupted run no matter how
/// many crashes, failures, cancels or process restarts happened in between.
/// Each transition publishes that job's record alone; a publish that fails
/// leaves the previous record in place and is written again by the next
/// publish of any job, or by Drain.
///
/// All public methods are thread-safe.
class JobSupervisor {
 public:
  JobSupervisor(SupervisorOptions options, RunFn run_fn);
  /// Drains (idempotent) and joins all threads.
  ~JobSupervisor();

  /// Reads the record of every `job-N` directory under checkpoint_dir, and
  /// writes nothing (no-op when in-memory): DONE jobs serve their recorded
  /// result; FAILED and CANCELLED jobs stay parked until resume_job; jobs
  /// that were PENDING or RUNNING at the crash are requeued to resume from
  /// their newest snapshot, under the deadline they were submitted with. A
  /// record that is missing or does not decode skips its job with a warning.
  /// The next id is past every `job-N` directory, so no id is reused. Call
  /// once, before Start.
  void Recover();

  /// Spawns the worker threads. Jobs submitted before Start sit PENDING
  /// until it runs.
  void Start();

  /// Queues a new job; returns its id ("job-N"). Rejects (empty string)
  /// after Drain began or while kMaxActiveJobs jobs are pending or running.
  std::string Submit(const JobSpec& spec);

  /// Flips the job's cancel token with a structured code ("cancelled",
  /// "deadline_exceeded", ...). The running attempt stops at its next batch
  /// barrier, force-checkpoints, and the job parks CANCELLED (resumable).
  /// Pending jobs park immediately. False if the id is unknown or terminal.
  bool Cancel(const std::string& id, const std::string& code = "cancelled");

  /// Requeues a CANCELLED or FAILED job; its next attempt resumes from the
  /// newest checkpoint. False if unknown or not in a resumable state.
  bool Resume(const std::string& id);

  std::optional<JobStatus> Status(const std::string& id) const;
  std::vector<JobStatus> List() const;
  /// Jobs in each state, indexed by JobState; copies no job.
  std::array<size_t, kNumJobStates> StateCounts() const;

  /// Graceful shutdown: stop intake, cancel RUNNING jobs with code
  /// "drained" (they force-checkpoint and park PENDING so the next process
  /// resumes them), join the workers, write again any record whose publish
  /// failed. Idempotent.
  void Drain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }
  const SupervisorOptions& options() const { return options_; }

  /// Serializes/parses the deterministic slice of a result (see JobResult:
  /// stats.elapsed_seconds excluded), as a DONE job's record carries it.
  /// Exposed for the codec tests and the resume byte-compare test.
  static std::string EncodeResult(const JobResult& result);
  static JobResult DecodeResult(std::string_view payload);

 private:
  struct Job {
    std::string id;
    JobSpec spec;
    JobState state = JobState::kPending;
    int attempts = 0;
    int resumes = 0;
    std::string error;
    JobResult result;  ///< meaningful once DONE, the state that sets it

    /// Cancellation token for the current attempt; replaced per attempt so
    /// a stale cancel can never kill a fresh run.
    std::shared_ptr<std::atomic<bool>> cancel;
    std::string cancel_code;  ///< why the token was flipped
    std::atomic<int64_t> candidates{0};
    std::atomic<int64_t> batches_committed{0};

    /// System-clock time (NowSeconds) of the job deadline; 0 = none.
    double deadline_seconds_abs = 0.0;
    /// In-memory checkpoint stream (empty checkpoint_dir only).
    std::optional<core::EvolutionCheckpoint> memory_ckpt;
  };

  /// Wraps the real sink: stamps progress and applies the deadline rule at
  /// every batch barrier.
  class HeartbeatSink;

  void WorkerLoop();
  /// Runs one attempt of `job` (already marked RUNNING under mu_).
  void RunAttempt(Job& job);
  void FinishAttempt(Job& job, const core::EvolutionResult& result);
  void FailAttempt(Job& job, const std::string& why);
  /// Loads the newest resumable snapshot for `job` (disk or memory).
  std::optional<core::EvolutionCheckpoint> LoadResume(Job& job);
  /// Seconds since the Unix epoch, from the system clock: a job deadline
  /// must mean the same instant to the next process.
  static double NowSeconds();
  /// Marks `job`'s record unsaved (unless null), then publishes every
  /// unsaved record to `<checkpoint_dir>/<id>/job` through ckpt::PublishFile.
  /// A failed publish keeps the record unsaved for the next call. Once a
  /// DONE record is on disk, the job's search stream is removed. Caller
  /// holds mu_.
  void SaveLocked(const Job* job);
  Job* FindLocked(const std::string& id);
  JobStatus SnapshotLocked(const Job& job) const;
  std::array<size_t, kNumJobStates> StateCountsLocked() const;
  /// Queues `job` for a worker. Caller holds mu_.
  void EnqueueLocked(Job& job);

  SupervisorOptions options_;
  RunFn run_fn_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::map<std::string, std::unique_ptr<Job>> jobs_;
  std::deque<std::string> ready_;  ///< PENDING job ids awaiting a worker
  std::set<std::string> unsaved_;  ///< ids whose newest record is not on disk
  int64_t next_job_ = 1;
  bool started_ = false;
  std::atomic<bool> draining_{false};
  bool stop_ = false;

  std::mutex drain_mu_;  ///< serializes Drain (idempotent, join-once)
  bool drained_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace alphaevolve::service

#endif  // ALPHAEVOLVE_SERVICE_JOB_SUPERVISOR_H_
