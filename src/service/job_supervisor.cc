#include "service/job_supervisor.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "ckpt/checkpoint.h"
#include "obs/telemetry.h"
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

/// N for a directory named `job-N` (0 < N < INT64_MAX), else 0.
int64_t JobNumber(const std::string& name) {
  if (name.rfind("job-", 0) != 0) return 0;
  const char* end = name.data() + name.size();
  int64_t n = 0;
  const auto [ptr, ec] = std::from_chars(name.data() + 4, end, n);
  const bool ok = ec == std::errc() && ptr == end && n > 0 && n < INT64_MAX;
  return ok ? n : 0;
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
// Result codec. The encoding deliberately omits stats.elapsed_seconds — the
// one field a resumed run cannot bitwise-reproduce — so a DONE job's record
// (and the job_result op a restarted daemon builds from it) is byte-identical
// between an uninterrupted run and any chain of crash/resume attempts with
// the same spec.

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
    : options_(std::move(options)), run_fn_(std::move(run_fn)) {}

JobSupervisor::~JobSupervisor() { Drain(); }

double JobSupervisor::NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
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
  SaveLocked(&ref);
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
    SaveLocked(job);
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
  EnqueueLocked(*job);
  SaveLocked(job);
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
  SaveLocked(nullptr);
}

// ---------------------------------------------------------------------------
// Worker threads.

void JobSupervisor::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !ready_.empty(); });
    if (stop_) return;  // drain: queued jobs stay PENDING in their records
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
      SaveLocked(job);
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
  auto loaded =
      ckpt::LoadNewest(options_.checkpoint_dir + "/" + job.id, "search");
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
  // A fresh job has no snapshot to resume from: ids are never reused.
  std::optional<core::EvolutionCheckpoint> resume = LoadResume(job);
  if (resume.has_value()) {
    std::lock_guard<std::mutex> lock(mu_);
    job.resumes += 1;
    if (obs::Enabled()) JobCounters::Get().resumed.Add(1);
  }

  // The durable sink (one writer per attempt: generation numbering continues
  // from the newest file, so attempt N+1 extends attempt N's stream), or the
  // in-memory stand-in, both wrapped by the barrier rules.
  std::unique_ptr<ckpt::CheckpointWriter> writer;
  if (!options_.checkpoint_dir.empty()) {
    ckpt::WriterOptions wo;
    wo.every_batches = options_.checkpoint_every_batches;
    wo.keep = options_.checkpoint_keep;
    writer = std::make_unique<ckpt::CheckpointWriter>(
        options_.checkpoint_dir + "/" + job.id, "search", wo);
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
  std::lock_guard<std::mutex> lock(mu_);
  // A stopped run routes on why its token was flipped.
  const std::string code =
      job.cancel_code.empty() ? "cancelled" : job.cancel_code;
  if (!result.stopped) {
    // Completed: one record carries the DONE state and the result, so a
    // crash before it lands reruns the tail from the search stream.
    job.result.has_alpha = result.has_alpha;
    job.result.best = result.best;
    job.result.best_fitness = result.best_fitness;
    job.result.metrics = result.best_metrics;
    job.result.stats = result.stats;
    job.state = JobState::kDone;
    job.error.clear();
    if (obs::Enabled()) JobCounters::Get().done.Add(1);
  } else if (code == "drained") {
    // Graceful drain: back to PENDING so the next process auto-resumes.
    job.state = JobState::kPending;
    job.error.clear();
  } else {
    // Explicit cancel or deadline: park resumable.
    job.state = JobState::kCancelled;
    job.error = code;
    if (obs::Enabled()) JobCounters::Get().cancelled.Add(1);
  }
  SaveLocked(&job);
}

void JobSupervisor::FailAttempt(Job& job, const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  job.state = JobState::kFailed;
  job.error = why;
  if (obs::Enabled()) JobCounters::Get().failed.Add(1);
  SaveLocked(&job);
}

// ---------------------------------------------------------------------------
// Job records: `<checkpoint_dir>/<id>/job`, one sealed kJobRecordKind file
// per job, beside that job's snapshot stream.

void JobSupervisor::SaveLocked(const Job* job) {
  if (options_.checkpoint_dir.empty()) return;
  if (job != nullptr) unsaved_.insert(job->id);
  std::erase_if(unsaved_, [this](const std::string& id) {
    const Job& j = *jobs_.at(id);
    serde::Writer w;
    w.U64(j.spec.seed);
    w.I64(j.spec.max_candidates);
    w.U32(static_cast<uint32_t>(j.spec.population_size));
    w.U32(static_cast<uint32_t>(j.spec.tournament_size));
    w.U32(static_cast<uint32_t>(j.spec.batch_size));
    w.F64(j.spec.deadline_seconds);
    w.U8(static_cast<uint8_t>(j.state));
    w.U32(static_cast<uint32_t>(j.attempts));
    w.U32(static_cast<uint32_t>(j.resumes));
    w.Str(j.error);
    w.F64(j.deadline_seconds_abs);
    if (j.state == JobState::kDone) w.Str(EncodeResult(j.result));
    const std::string dir = options_.checkpoint_dir + "/" + id;
    std::error_code ec;
    const bool created = std::filesystem::create_directories(dir, ec);
    const bool saved =
        ckpt::PublishFile(dir, "job", serde::Seal(kJobRecordKind, w.Take()));
    // A new job's directory entry must be as durable as its record.
    if (created) ckpt::FsyncDir(options_.checkpoint_dir);
    // The result is on disk: the search stream is spent.
    if (saved && j.state == JobState::kDone) {
      ckpt::RemoveCheckpoints(dir, "search");
    }
    return saved;
  });
}

void JobSupervisor::Recover() {
  if (options_.checkpoint_dir.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.checkpoint_dir, ec)) {
    const std::string id = entry.path().filename().string();
    const int64_t number = JobNumber(id);
    if (number == 0) continue;
    next_job_ = std::max(next_job_, number + 1);
    auto job = std::make_unique<Job>();
    job->id = id;
    try {
      std::ifstream in(entry.path() / "job", std::ios::binary);
      const serde::Envelope env = serde::Open(
          std::string(std::istreambuf_iterator<char>(in), {}));
      if (env.kind != kJobRecordKind) throw serde::Error("not a job record");
      serde::Reader r(env.payload);
      job->spec.seed = r.U64();
      job->spec.max_candidates = r.I64();
      job->spec.population_size = static_cast<int>(r.U32());
      job->spec.tournament_size = static_cast<int>(r.U32());
      job->spec.batch_size = static_cast<int>(r.U32());
      job->spec.deadline_seconds = r.F64();
      const uint8_t state = r.U8();
      if (state >= kNumJobStates) throw serde::Error("job state out of range");
      job->state = static_cast<JobState>(state);
      job->attempts = static_cast<int>(r.U32());
      job->resumes = static_cast<int>(r.U32());
      job->error = r.Str();
      job->deadline_seconds_abs = r.F64();
      if (job->state == JobState::kDone) job->result = DecodeResult(r.Str());
      r.ExpectEnd();
    } catch (const serde::Error& e) {
      std::fprintf(stderr,
                   "[service] warn: skipping %s: record unreadable (%s)\n",
                   id.c_str(), e.what());
      continue;
    }
    // A job that was running when its process died resumes from its newest
    // snapshot, like a pending one.
    if (job->state == JobState::kRunning) job->state = JobState::kPending;
    jobs_[id] = std::move(job);
  }
  for (auto& [id, job] : jobs_) {
    if (job->state == JobState::kPending) EnqueueLocked(*job);
  }
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
  s.has_result = job.state == JobState::kDone;
  if (s.has_result) s.result = job.result;
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
