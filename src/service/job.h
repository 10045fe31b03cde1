#ifndef ALPHAEVOLVE_SERVICE_JOB_H_
#define ALPHAEVOLVE_SERVICE_JOB_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/evaluator.h"
#include "core/evolution.h"
#include "core/program.h"

namespace alphaevolve::service {

/// Envelope kind of a job's durable record, `<checkpoint_dir>/<id>/job`
/// (see serde::Seal; kinds 1 and 2 belong to the ckpt layer's search and
/// campaign snapshots). The record holds the job's spec, state, attempts,
/// resumes, error and absolute deadline, plus, once DONE, its deterministic
/// result, so a restarted daemon serves the same bytes without re-running
/// the search.
inline constexpr uint32_t kJobRecordKind = 3;

/// Supervised-job state machine. PENDING and RUNNING are transient; DONE,
/// FAILED and CANCELLED are terminal for the supervisor loop, which never
/// moves a job out of them by itself. FAILED (its attempt threw) and
/// CANCELLED jobs resume from their newest checkpoint via the resume_job op,
/// crash-interrupted PENDING and RUNNING jobs via daemon restart — either
/// way bit-identical to an uninterrupted run.
enum class JobState {
  kPending,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
};
/// Number of JobState values; JobSupervisor::StateCounts indexes by them.
inline constexpr size_t kNumJobStates =
    static_cast<size_t>(JobState::kCancelled) + 1;

const char* JobStateName(JobState state);

/// What a submit_search op pins down. Everything determinism depends on
/// (seed, candidate budget, population/tournament/batch shape) lives here,
/// so a resumed job re-runs under exactly the config that produced its
/// checkpoints.
struct JobSpec {
  uint64_t seed = 1;
  int64_t max_candidates = 240;  ///< candidate-bounded: resumable bit-exactly
  int population_size = 20;
  int tournament_size = 5;
  int batch_size = 8;
  /// Wall-clock deadline for the whole job (0 = none), counted from submit,
  /// the op-level deadline generalized to job granularity. The job's record
  /// stores the absolute time, so a daemon restart does not extend it. A job
  /// past it never starts, and a running job stops at its next batch
  /// barrier; either way it parks CANCELLED with a structured
  /// deadline_exceeded error.
  double deadline_seconds = 0.0;
};

/// The deterministic slice of a finished search — everything the job_result
/// op serves, and everything the kill-and-resume smoke byte-compares.
/// Wall-clock (stats.elapsed_seconds) is deliberately excluded from the
/// wire encoding: it is the one field a resumed run cannot reproduce.
struct JobResult {
  bool has_alpha = false;
  core::AlphaProgram best;
  double best_fitness = core::kInvalidFitness;
  core::AlphaMetrics metrics;
  core::EvolutionStats stats;
};

/// A copyable snapshot of one job's supervision state, for status ops.
struct JobStatus {
  std::string id;
  JobSpec spec;
  JobState state = JobState::kPending;
  int attempts = 0;      ///< runs started (first run included)
  int resumes = 0;       ///< runs that continued from a checkpoint
  std::string error;     ///< thrown message when FAILED, code when CANCELLED
  int64_t candidates = 0;          ///< progress, from the last snapshot
  int64_t batches_committed = 0;   ///< progress, from the last barrier
  bool has_result = false;
  JobResult result;                ///< meaningful when has_result
};

}  // namespace alphaevolve::service

#endif  // ALPHAEVOLVE_SERVICE_JOB_H_
