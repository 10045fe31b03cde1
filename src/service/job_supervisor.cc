#include "service/job_supervisor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "ckpt/checkpoint.h"
#include "obs/telemetry.h"
#include "util/check.h"
#include "util/json.h"
#include "util/serde.h"

namespace alphaevolve::service {

namespace {

/// Registered once; all counters live for the process (obs idiom — see
/// CkptCounters).
struct JobCounters {
  obs::Counter& submitted;
  obs::Counter& done;
  obs::Counter& failed;
  obs::Counter& cancelled;
  obs::Counter& resumed;
  obs::Gauge& running;
  static JobCounters& Get() {
    static JobCounters counters{
        obs::MetricsRegistry::Default().GetCounter("service.jobs_submitted"),
        obs::MetricsRegistry::Default().GetCounter("service.jobs_done"),
        obs::MetricsRegistry::Default().GetCounter("service.jobs_failed"),
        obs::MetricsRegistry::Default().GetCounter("service.jobs_cancelled"),
        obs::MetricsRegistry::Default().GetCounter("service.jobs_resumed"),
        obs::MetricsRegistry::Default().GetGauge("service.jobs_running"),
    };
    return counters;
  }
};

JobState ParseJobState(const std::string& name) {
  if (name == "running") return JobState::kRunning;
  if (name == "done") return JobState::kDone;
  if (name == "failed") return JobState::kFailed;
  if (name == "cancelled") return JobState::kCancelled;
  return JobState::kPending;
}

bool Terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

}  // namespace

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kPending:
      return "pending";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Result blob codec. The encoding deliberately omits stats.elapsed_seconds —
// the one field a resumed run cannot bitwise-reproduce — so the blob (and the
// job_result op built from it) is byte-identical between an uninterrupted run
// and any chain of crash/resume attempts with the same spec.

std::string JobSupervisor::EncodeResult(const JobResult& result) {
  serde::Writer w;
  w.Bool(result.has_alpha);
  ckpt::EncodeProgram(w, result.best);
  w.F64(result.best_fitness);
  ckpt::EncodeMetrics(w, result.metrics);
  core::EvolutionStats stats = result.stats;
  stats.elapsed_seconds = 0.0;
  ckpt::EncodeEvolutionStats(w, stats);
  return w.Take();
}

JobResult JobSupervisor::DecodeResult(std::string_view payload) {
  serde::Reader r(payload);
  JobResult result;
  result.has_alpha = r.Bool();
  result.best = ckpt::DecodeProgram(r);
  result.best_fitness = r.F64();
  result.metrics = ckpt::DecodeMetrics(r);
  result.stats = ckpt::DecodeEvolutionStats(r);
  r.ExpectEnd();
  return result;
}

// ---------------------------------------------------------------------------
// Heartbeat wrapper: sits between Evolution and the real sink. At every batch
// barrier, the one point where a search reads its stop token, it stamps the
// job's progress and stops the attempt if the job is past its deadline,
// unless a code is already set (cancel, drain).

class JobSupervisor::HeartbeatSink : public core::CheckpointSink {
 public:
  HeartbeatSink(JobSupervisor* sup, Job* job, core::CheckpointSink* inner,
                int every_batches)
      : sup_(sup), job_(job), inner_(inner), every_batches_(every_batches) {}

  bool WantCheckpoint(int64_t batches_committed) override {
    job_->batches_committed.store(batches_committed,
                                  std::memory_order_release);
    if (job_->deadline_seconds_abs > 0.0 &&
        sup_->NowSeconds() > job_->deadline_seconds_abs) {
      std::lock_guard<std::mutex> lock(sup_->mu_);
      if (job_->cancel_code.empty()) {
        job_->cancel_code = "deadline_exceeded";
        job_->cancel->store(true, std::memory_order_release);
      }
    }
    if (inner_ != nullptr) return inner_->WantCheckpoint(batches_committed);
    return every_batches_ > 0 && batches_committed % every_batches_ == 0;
  }

  void WriteCheckpoint(const core::EvolutionCheckpoint& ck) override {
    job_->candidates.store(ck.stats.candidates, std::memory_order_release);
    if (inner_ != nullptr) {
      inner_->WriteCheckpoint(ck);
    } else {
      job_->memory_ckpt = ck;  // in-memory mode: worker thread only
    }
  }

 private:
  JobSupervisor* sup_;
  Job* job_;
  core::CheckpointSink* inner_;  ///< null in in-memory mode
  int every_batches_;
};

// ---------------------------------------------------------------------------

JobSupervisor::JobSupervisor(SupervisorOptions options, RunFn run_fn)
    : options_(std::move(options)),
      run_fn_(std::move(run_fn)),
      epoch_(std::chrono::steady_clock::now()) {}

JobSupervisor::~JobSupervisor() { Drain(); }

double JobSupervisor::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void JobSupervisor::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  const int n = std::max(1, options_.worker_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

std::string JobSupervisor::Submit(const JobSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_.load(std::memory_order_acquire)) return "";
  const auto counts = StateCountsLocked();
  const size_t active = counts[static_cast<size_t>(JobState::kPending)] +
                        counts[static_cast<size_t>(JobState::kRunning)];
  if (active >= kMaxActiveJobs) return "";
  std::string id = "job-" + std::to_string(next_job_++);
  auto job = std::make_unique<Job>();
  job->id = id;
  job->spec = spec;
  if (spec.deadline_seconds > 0.0) {
    job->deadline_seconds_abs = NowSeconds() + spec.deadline_seconds;
  }
  Job& ref = *job;
  jobs_.emplace(id, std::move(job));
  EnqueueLocked(ref);
  if (obs::Enabled()) JobCounters::Get().submitted.Add(1);
  SaveManifestLocked();
  return id;
}

bool JobSupervisor::Cancel(const std::string& id, const std::string& code) {
  std::lock_guard<std::mutex> lock(mu_);
  Job* job = FindLocked(id);
  if (job == nullptr || Terminal(job->state)) return false;
  if (job->state == JobState::kPending) {
    job->state = JobState::kCancelled;
    job->error = code;
    if (obs::Enabled()) JobCounters::Get().cancelled.Add(1);
    SaveManifestLocked();
    return true;
  }
  // RUNNING: flip the attempt's token; the run stops at its next batch
  // barrier, force-checkpoints, and FinishAttempt parks the job under `code`.
  job->cancel_code = code;
  if (job->cancel) job->cancel->store(true, std::memory_order_release);
  return true;
}

bool JobSupervisor::Resume(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_.load(std::memory_order_acquire)) return false;
  Job* job = FindLocked(id);
  if (job == nullptr) return false;
  if (job->state != JobState::kCancelled && job->state != JobState::kFailed) {
    return false;
  }
  job->state = JobState::kPending;
  job->error.clear();
  job->wants_resume = true;
  EnqueueLocked(*job);
  SaveManifestLocked();
  return true;
}

std::optional<JobStatus> JobSupervisor::Status(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return SnapshotLocked(*it->second);
}

std::vector<JobStatus> JobSupervisor::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(SnapshotLocked(*job));
  return out;
}

std::array<size_t, kNumJobStates> JobSupervisor::StateCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return StateCountsLocked();
}

void JobSupervisor::Drain() {
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  if (drained_) return;
  drained_ = true;
  draining_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    for (auto& [id, job] : jobs_) {
      if (job->state != JobState::kRunning) continue;
      job->cancel_code = "drained";
      if (job->cancel) job->cancel->store(true, std::memory_order_release);
    }
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  SaveManifestLocked();
}

// ---------------------------------------------------------------------------
// Worker threads.

void JobSupervisor::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !ready_.empty(); });
    if (stop_) return;  // drain: queued jobs stay PENDING in the manifest
    const std::string id = ready_.front();
    ready_.pop_front();
    Job* job = FindLocked(id);
    if (job == nullptr || job->state != JobState::kPending) continue;
    if (job->deadline_seconds_abs > 0.0 &&
        NowSeconds() > job->deadline_seconds_abs) {
      // Past its deadline before a worker got to it: it never starts.
      job->state = JobState::kCancelled;
      job->error = "deadline_exceeded";
      if (obs::Enabled()) JobCounters::Get().cancelled.Add(1);
      SaveManifestLocked();
      continue;
    }
    job->state = JobState::kRunning;
    job->attempts += 1;
    job->error.clear();
    job->cancel = std::make_shared<std::atomic<bool>>(false);
    job->cancel_code.clear();
    if (obs::Enabled()) JobCounters::Get().running.Add(1);
    lock.unlock();
    RunAttempt(*job);
    if (obs::Enabled()) JobCounters::Get().running.Add(-1);
    lock.lock();
  }
}

std::optional<core::EvolutionCheckpoint> JobSupervisor::LoadResume(Job& job) {
  if (options_.checkpoint_dir.empty()) return job.memory_ckpt;
  auto loaded = ckpt::LoadNewest(options_.checkpoint_dir, job.id);
  if (!loaded.has_value()) return std::nullopt;
  if (loaded->kind != ckpt::kSearchSnapshotKind) {
    std::fprintf(stderr,
                 "[service] warn: %s newest checkpoint has kind %u, "
                 "restarting fresh\n",
                 job.id.c_str(), loaded->kind);
    return std::nullopt;
  }
  try {
    return ckpt::DecodeSearchSnapshot(loaded->payload);
  } catch (const serde::Error& e) {
    std::fprintf(stderr, "[service] warn: %s checkpoint undecodable (%s)\n",
                 job.id.c_str(), e.what());
    return std::nullopt;
  }
}

void JobSupervisor::RunAttempt(Job& job) {
  std::optional<core::EvolutionCheckpoint> resume;
  bool wants_resume = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    wants_resume = job.wants_resume;
  }
  if (wants_resume) {
    resume = LoadResume(job);
    if (resume.has_value()) {
      std::lock_guard<std::mutex> lock(mu_);
      job.resumes += 1;
      if (obs::Enabled()) JobCounters::Get().resumed.Add(1);
    }
  }

  // The durable sink (one writer per attempt: generation numbering continues
  // from the newest file, so attempt N+1 extends attempt N's stream), or the
  // in-memory stand-in, both wrapped by the barrier rules.
  std::unique_ptr<ckpt::CheckpointWriter> writer;
  if (!options_.checkpoint_dir.empty()) {
    ckpt::WriterOptions wo;
    wo.every_batches = options_.checkpoint_every_batches;
    wo.keep = options_.checkpoint_keep;
    writer = std::make_unique<ckpt::CheckpointWriter>(options_.checkpoint_dir,
                                                      job.id, wo);
  }
  HeartbeatSink sink(this, &job, writer.get(),
                     options_.checkpoint_every_batches);

  try {
    core::EvolutionResult result = run_fn_(
        job.spec, &sink, resume.has_value() ? &*resume : nullptr,
        job.cancel.get());
    if (writer) writer->Flush();
    FinishAttempt(job, result);
  } catch (const std::exception& e) {
    if (writer) writer->Flush();
    FailAttempt(job, e.what());
  }
}

void JobSupervisor::FinishAttempt(Job& job,
                                  const core::EvolutionResult& result) {
  if (!result.stopped) {
    // Completed. Persist the deterministic result blob *before* publishing
    // the DONE state, so a crash between the two re-runs the tail instead of
    // serving a result that never hit disk.
    JobResult jr;
    jr.has_alpha = result.has_alpha;
    jr.best = result.best;
    jr.best_fitness = result.best_fitness;
    jr.metrics = result.best_metrics;
    jr.stats = result.stats;
    {
      std::lock_guard<std::mutex> lock(mu_);
      job.result = jr;  // worker-owned while RUNNING; published below
    }
    PersistResult(job);
    std::lock_guard<std::mutex> lock(mu_);
    job.state = JobState::kDone;
    job.has_result = true;
    job.wants_resume = false;
    job.error.clear();
    if (obs::Enabled()) JobCounters::Get().done.Add(1);
    SaveManifestLocked();
    return;
  }

  // Stopped by the token: route on why it was flipped.
  std::lock_guard<std::mutex> lock(mu_);
  job.wants_resume = true;  // a forced final snapshot exists
  const std::string code =
      job.cancel_code.empty() ? "cancelled" : job.cancel_code;
  if (code == "drained") {
    // Graceful drain: back to PENDING so the next process auto-resumes.
    job.state = JobState::kPending;
    job.error.clear();
  } else {
    // Explicit cancel or deadline: park resumable.
    job.state = JobState::kCancelled;
    job.error = code;
    if (obs::Enabled()) JobCounters::Get().cancelled.Add(1);
  }
  SaveManifestLocked();
}

void JobSupervisor::FailAttempt(Job& job, const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  job.state = JobState::kFailed;
  job.error = why;
  job.wants_resume = true;
  if (obs::Enabled()) JobCounters::Get().failed.Add(1);
  SaveManifestLocked();
}

void JobSupervisor::PersistResult(Job& job) {
  if (options_.checkpoint_dir.empty()) return;
  ckpt::WriterOptions wo;
  wo.keep = 1;
  ckpt::CheckpointWriter writer(options_.checkpoint_dir, job.id + ".result",
                                wo);
  writer.WriteBlob(kJobResultKind, EncodeResult(job.result));
  // The search stream is spent: the result blob is the durable artifact now.
  ckpt::RemoveCheckpoints(options_.checkpoint_dir, job.id);
}

// ---------------------------------------------------------------------------
// Manifest + recovery.

void JobSupervisor::SaveManifestLocked() {
  if (options_.checkpoint_dir.empty()) return;
  JsonWriter w;
  w.BeginObject();
  w.Key("next_job").Value(next_job_);
  w.Key("jobs").BeginArray();
  for (const auto& [id, job] : jobs_) {
    w.BeginObject();
    w.Key("id").Value(job->id);
    w.Key("state").Value(JobStateName(job->state));
    w.Key("attempts").Value(static_cast<int64_t>(job->attempts));
    w.Key("resumes").Value(static_cast<int64_t>(job->resumes));
    w.Key("error").Value(job->error);
    w.Key("wants_resume").Value(job->wants_resume);
    w.Key("spec").BeginObject();
    w.Key("seed").Value(static_cast<uint64_t>(job->spec.seed));
    w.Key("max_candidates").Value(job->spec.max_candidates);
    w.Key("population_size").Value(job->spec.population_size);
    w.Key("tournament_size").Value(job->spec.tournament_size);
    w.Key("batch_size").Value(job->spec.batch_size);
    w.Key("deadline_seconds").Value(job->spec.deadline_seconds);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  // The checkpoint writers create this lazily on their first publish, but
  // the manifest must be durable from the very first Submit — a daemon can
  // be killed before any snapshot lands. A failed publish warns and keeps
  // the previous manifest; the next transition writes it again.
  std::error_code ec;
  std::filesystem::create_directories(options_.checkpoint_dir, ec);
  ckpt::PublishFile(options_.checkpoint_dir, "jobs.json",
                    w.TakeString() + "\n");
}

void JobSupervisor::Recover() {
  if (options_.checkpoint_dir.empty()) return;
  const std::string path = options_.checkpoint_dir + "/jobs.json";
  std::ifstream in(path);
  if (!in) return;  // first boot: nothing to replay
  std::stringstream buf;
  buf << in.rdbuf();
  JsonValue doc;
  try {
    doc = JsonValue::Parse(buf.str());
  } catch (const CheckError& e) {
    std::fprintf(stderr, "[service] warn: manifest %s unreadable (%s)\n",
                 path.c_str(), e.what());
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (doc.Contains("next_job")) {
    next_job_ = std::max(next_job_, doc.At("next_job").AsInt());
  }
  if (!doc.Contains("jobs")) return;
  for (const JsonValue& j : doc.At("jobs").AsArray()) {
    auto job = std::make_unique<Job>();
    job->id = j.At("id").AsString();
    job->attempts = static_cast<int>(j.At("attempts").AsInt());
    job->resumes = static_cast<int>(j.At("resumes").AsInt());
    job->error = j.At("error").AsString();
    job->wants_resume = j.At("wants_resume").AsBool();
    const JsonValue& spec = j.At("spec");
    job->spec.seed = static_cast<uint64_t>(spec.At("seed").AsInt());
    job->spec.max_candidates = spec.At("max_candidates").AsInt();
    job->spec.population_size =
        static_cast<int>(spec.At("population_size").AsInt());
    job->spec.tournament_size =
        static_cast<int>(spec.At("tournament_size").AsInt());
    job->spec.batch_size = static_cast<int>(spec.At("batch_size").AsInt());
    job->spec.deadline_seconds = spec.At("deadline_seconds").AsDouble();

    const JobState state = ParseJobState(j.At("state").AsString());
    if (state == JobState::kDone) {
      // Serve the persisted result; a DONE manifest entry whose blob is
      // missing or corrupt falls back to re-running from the search stream.
      bool loaded = false;
      auto blob =
          ckpt::LoadNewest(options_.checkpoint_dir, job->id + ".result");
      if (blob.has_value() && blob->kind == kJobResultKind) {
        try {
          job->result = DecodeResult(blob->payload);
          job->has_result = true;
          job->state = JobState::kDone;
          loaded = true;
        } catch (const serde::Error& e) {
          std::fprintf(stderr,
                       "[service] warn: %s result blob undecodable (%s)\n",
                       job->id.c_str(), e.what());
        }
      }
      if (!loaded) {
        job->state = JobState::kPending;
        job->wants_resume = true;
      }
    } else if (state == JobState::kFailed || state == JobState::kCancelled) {
      job->state = state;  // parked until resume_job
    } else {
      // PENDING and RUNNING (crashed mid-attempt) requeue; the next attempt
      // resumes from the newest checkpoint if one exists.
      job->state = JobState::kPending;
      job->wants_resume = true;
      job->error.clear();
    }
    if (job->spec.deadline_seconds > 0.0 &&
        job->state == JobState::kPending) {
      job->deadline_seconds_abs = NowSeconds() + job->spec.deadline_seconds;
    }
    Job& ref = *job;
    const std::string id = job->id;
    jobs_[id] = std::move(job);
    if (ref.state == JobState::kPending) EnqueueLocked(ref);
  }
  SaveManifestLocked();
}

// ---------------------------------------------------------------------------

JobSupervisor::Job* JobSupervisor::FindLocked(const std::string& id) {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

JobStatus JobSupervisor::SnapshotLocked(const Job& job) const {
  JobStatus s;
  s.id = job.id;
  s.spec = job.spec;
  s.state = job.state;
  s.attempts = job.attempts;
  s.resumes = job.resumes;
  s.error = job.error;
  s.candidates = job.candidates.load(std::memory_order_acquire);
  s.batches_committed = job.batches_committed.load(std::memory_order_acquire);
  s.has_result = job.has_result;
  if (job.has_result) s.result = job.result;
  return s;
}

std::array<size_t, kNumJobStates> JobSupervisor::StateCountsLocked() const {
  std::array<size_t, kNumJobStates> counts{};
  for (const auto& [id, job] : jobs_) ++counts[static_cast<size_t>(job->state)];
  return counts;
}

void JobSupervisor::EnqueueLocked(Job& job) {
  ready_.push_back(job.id);
  work_cv_.notify_one();
}

}  // namespace alphaevolve::service
