// Resident-service tests: op-queue admission control, the line protocol,
// the job supervisor's state machine (completion, a throwing attempt parked
// FAILED until resume_job, deadline enforcement, recovery from per-job
// records, including every truncated or overwritten record), op-level
// cancellation leaving a valid newest checkpoint, and the end-to-end
// AlphaService op catalog — including the bit-identity contract: a search
// cancelled mid-run and resumed finishes byte-identical to an uninterrupted
// run — and its edge: capped request lines and deadlines, checked numeric
// params, and one well-formed answer to every mangled request line.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "core/evaluator_pool.h"
#include "core/evolution.h"
#include "core/generators.h"
#include "core/pruning.h"
#include "market/dataset.h"
#include "service/alpha_service.h"
#include "service/job_supervisor.h"
#include "service/op_queue.h"
#include "service/protocol.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/serde.h"

namespace alphaevolve::service {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Op queue.

TEST(OpQueueTest, AdmissionControlNeverBlocks) {
  OpQueue queue(2);
  Op op;
  EXPECT_EQ(queue.TryPush(std::move(op)), PushResult::kOk);
  Op op2;
  EXPECT_EQ(queue.TryPush(std::move(op2)), PushResult::kOk);
  Op op3;
  EXPECT_EQ(queue.TryPush(std::move(op3)), PushResult::kFull);
  EXPECT_EQ(queue.depth(), 2u);

  EXPECT_TRUE(queue.Pop().has_value());
  Op op4;
  EXPECT_EQ(queue.TryPush(std::move(op4)), PushResult::kOk);

  queue.Close();
  Op op5;
  EXPECT_EQ(queue.TryPush(std::move(op5)), PushResult::kClosed);
  // Already-admitted ops still drain after Close — the drain contract.
  EXPECT_TRUE(queue.Pop().has_value());
  EXPECT_TRUE(queue.Pop().has_value());
  EXPECT_FALSE(queue.Pop().has_value());  // closed + empty
}

TEST(OpQueueTest, CloseWakesBlockedPop) {
  OpQueue queue(1);
  std::atomic<bool> woke{false};
  std::thread popper([&] {
    EXPECT_FALSE(queue.Pop().has_value());
    woke.store(true);
  });
  std::this_thread::sleep_for(20ms);
  queue.Close();
  popper.join();
  EXPECT_TRUE(woke.load());
}

// ---------------------------------------------------------------------------
// Protocol.

TEST(ProtocolTest, ParsesWellFormedRequest) {
  std::string err;
  auto req = ParseRequest(
      R"({"op":"submit_search","id":"r1","deadline_ms":250,)"
      R"("params":{"seed":9}})",
      &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->op, "submit_search");
  EXPECT_EQ(req->id, "r1");
  EXPECT_DOUBLE_EQ(req->deadline_ms, 250.0);
  EXPECT_EQ(req->params.At("seed").AsInt(), 9);
}

TEST(ProtocolTest, RejectsMalformedLinesWithoutThrowing) {
  std::string err;
  EXPECT_FALSE(ParseRequest("not json at all", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(ParseRequest("[1,2,3]", &err).has_value());
  EXPECT_FALSE(ParseRequest(R"({"id":"x"})", &err).has_value());  // no op
  EXPECT_FALSE(ParseRequest(R"({"op":7})", &err).has_value());
  EXPECT_FALSE(
      ParseRequest(R"({"op":"health","deadline_ms":"soon"})", &err)
          .has_value());
  EXPECT_FALSE(
      ParseRequest(R"({"op":"health","params":[1]})", &err).has_value());
}

TEST(ProtocolTest, ReadRequestLineStopsBufferingAtTheCap) {
  // A line three times the cap, then a normal request: the reader keeps one
  // byte over the cap (so Submit rejects the line), drops the rest, and
  // resumes at the next line.
  const std::string endless(3 * kMaxRequestBytes, 'x');
  std::istringstream in(endless + "\n" + R"({"op":"health"})" + "\n\nlast");
  std::string line;
  ASSERT_TRUE(ReadRequestLine(in, &line));
  EXPECT_EQ(line.size(), kMaxRequestBytes + 1);
  EXPECT_EQ(line, endless.substr(0, kMaxRequestBytes + 1));
  ASSERT_TRUE(ReadRequestLine(in, &line));
  EXPECT_EQ(line, R"({"op":"health"})");
  ASSERT_TRUE(ReadRequestLine(in, &line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(ReadRequestLine(in, &line));  // unterminated last line
  EXPECT_EQ(line, "last");
  EXPECT_FALSE(ReadRequestLine(in, &line));
}

TEST(ProtocolTest, ResponsesCarryStructuredEnvelopes) {
  const JsonValue err =
      JsonValue::Parse(ErrorResponse("r9", kErrQueueFull, "try later"));
  EXPECT_EQ(err.At("id").AsString(), "r9");
  EXPECT_FALSE(err.At("ok").AsBool());
  EXPECT_EQ(err.At("error").At("code").AsString(), "queue_full");
  EXPECT_EQ(err.At("error").At("message").AsString(), "try later");

  const JsonValue ok = JsonValue::Parse(OkResponse(
      "r2", [](JsonWriter& w) { w.Key("answer").Value(int64_t{41}); }));
  EXPECT_TRUE(ok.At("ok").AsBool());
  EXPECT_EQ(ok.At("result").At("answer").AsInt(), 41);

  const JsonValue raw =
      JsonValue::Parse(OkResponseRaw("a\"b", R"({"nested":{"deep":true}})"));
  EXPECT_EQ(raw.At("id").AsString(), "a\"b");  // id escaping via the writer
  EXPECT_TRUE(raw.At("result").At("nested").At("deep").AsBool());
}

// ---------------------------------------------------------------------------
// Result codec.

TEST(JobResultCodecTest, RoundTripsAndExcludesWallClock) {
  JobResult result;
  result.has_alpha = true;
  result.best = core::MakeExpertAlpha(13);
  result.best_fitness = 0.125;
  result.metrics.valid = true;
  result.metrics.ic_valid = 0.125;
  result.metrics.ic_test = 0.08;
  result.metrics.sharpe_valid = 1.5;
  result.metrics.valid_portfolio_returns = {0.01, -0.02};
  result.stats.candidates = 240;
  result.stats.evaluated = 200;
  result.stats.elapsed_seconds = 987.0;  // must NOT survive the wire

  const std::string payload = JobSupervisor::EncodeResult(result);
  const JobResult back = JobSupervisor::DecodeResult(payload);
  EXPECT_EQ(back.has_alpha, result.has_alpha);
  EXPECT_EQ(back.best, result.best);
  EXPECT_DOUBLE_EQ(back.best_fitness, result.best_fitness);
  EXPECT_DOUBLE_EQ(back.metrics.ic_valid, result.metrics.ic_valid);
  EXPECT_EQ(back.metrics.valid_portfolio_returns,
            result.metrics.valid_portfolio_returns);
  EXPECT_EQ(back.stats.candidates, 240);
  EXPECT_DOUBLE_EQ(back.stats.elapsed_seconds, 0.0);

  // Two encodings that differ only in wall-clock are byte-identical — the
  // property the kill-and-resume smoke's byte compare rests on.
  JobResult other = result;
  other.stats.elapsed_seconds = 1.0;
  EXPECT_EQ(JobSupervisor::EncodeResult(other), payload);
}

// ---------------------------------------------------------------------------
// Supervisor state machine (fake run functions, in-memory checkpoints).

core::EvolutionResult FakeDone(double fitness) {
  core::EvolutionResult result;
  result.has_alpha = true;
  result.best = core::MakeExpertAlpha(13);
  result.best_fitness = fitness;
  result.stats.candidates = 10;
  return result;
}

/// Polls `pred` until true or the deadline; returns its final value.
template <typename Pred>
bool WaitFor(Pred pred, std::chrono::milliseconds limit = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

JobState StateOf(JobSupervisor& sup, const std::string& id) {
  auto status = sup.Status(id);
  return status.has_value() ? status->state : JobState::kPending;
}

/// An empty checkpoint root unique to this process and `tag`.
std::string FreshDir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("ae_service_" + std::to_string(::getpid()) + "_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// The run function of a supervisor that must start no attempt.
RunFn MustNotRun() {
  return [](const JobSpec&, core::CheckpointSink*,
            const core::EvolutionCheckpoint*,
            const std::atomic<bool>*) -> core::EvolutionResult {
    ADD_FAILURE() << "no attempt may run";
    return FakeDone(0.0);
  };
}

TEST(JobSupervisorTest, RunsJobToDone) {
  JobSupervisor sup(SupervisorOptions{},
                    [](const JobSpec&, core::CheckpointSink*,
                       const core::EvolutionCheckpoint* resume,
                       const std::atomic<bool>*) {
                      EXPECT_EQ(resume, nullptr);
                      return FakeDone(0.5);
                    });
  sup.Start();
  const std::string id = sup.Submit(JobSpec{});
  ASSERT_FALSE(id.empty());
  ASSERT_TRUE(WaitFor([&] { return StateOf(sup, id) == JobState::kDone; }));
  auto status = sup.Status(id);
  EXPECT_EQ(status->attempts, 1);
  EXPECT_EQ(status->resumes, 0);
  ASSERT_TRUE(status->has_result);
  EXPECT_DOUBLE_EQ(status->result.best_fitness, 0.5);
  EXPECT_EQ(JobStateName(status->state), std::string("done"));
}

TEST(JobSupervisorTest, ActiveJobCapRefusesSubmitsUntilOneLeaves) {
  // Never started, so every admitted job stays PENDING.
  JobSupervisor sup(SupervisorOptions{},
                    [](const JobSpec&, core::CheckpointSink*,
                       const core::EvolutionCheckpoint*,
                       const std::atomic<bool>*) { return FakeDone(0.5); });
  std::vector<std::string> ids;
  for (size_t i = 0; i < kMaxActiveJobs; ++i) {
    ids.push_back(sup.Submit(JobSpec{}));
    ASSERT_FALSE(ids.back().empty()) << "submit " << i;
  }
  EXPECT_TRUE(sup.Submit(JobSpec{}).empty());
  EXPECT_FALSE(sup.draining());
  // A cancelled job no longer counts: exactly one more gets in.
  ASSERT_TRUE(sup.Cancel(ids[7]));
  EXPECT_FALSE(sup.Submit(JobSpec{}).empty());
  EXPECT_TRUE(sup.Submit(JobSpec{}).empty());
}

TEST(JobSupervisorTest, ThrowingAttemptParksFailedUntilResumed) {
  // A throw parks the job FAILED with the thrown message, and it stays
  // there: only resume_job runs it again.
  std::atomic<int> calls{0};
  JobSupervisor sup(SupervisorOptions{},
                    [&](const JobSpec&, core::CheckpointSink*,
                        const core::EvolutionCheckpoint*,
                        const std::atomic<bool>*) {
                      if (calls.fetch_add(1) == 0) {
                        throw std::runtime_error("evaluator exploded");
                      }
                      return FakeDone(0.25);
                    });
  sup.Start();
  const std::string id = sup.Submit(JobSpec{});
  ASSERT_TRUE(WaitFor([&] { return StateOf(sup, id) == JobState::kFailed; }));
  std::this_thread::sleep_for(100ms);  // no rerun comes by itself
  const JobStatus failed = *sup.Status(id);
  EXPECT_EQ(failed.state, JobState::kFailed);
  EXPECT_EQ(failed.error, "evaluator exploded");
  EXPECT_EQ(failed.attempts, 1);
  EXPECT_EQ(calls.load(), 1);

  ASSERT_TRUE(sup.Resume(id));
  ASSERT_TRUE(WaitFor([&] { return StateOf(sup, id) == JobState::kDone; }));
  const JobStatus done = *sup.Status(id);
  EXPECT_EQ(done.attempts, 2);
  EXPECT_TRUE(done.error.empty());
  EXPECT_EQ(calls.load(), 2);
}

TEST(JobSupervisorTest, CancelParksResumableThenResumeContinues) {
  // First attempt: loop at "batch barriers" until cancelled, checkpointing
  // through the sink. Resumed attempt: must receive the last snapshot.
  std::atomic<int> attempt{0};
  JobSupervisor sup(
      SupervisorOptions{},
      [&](const JobSpec&, core::CheckpointSink* sink,
          const core::EvolutionCheckpoint* resume,
          const std::atomic<bool>* stop) {
        if (attempt.fetch_add(1) == 0) {
          EXPECT_EQ(resume, nullptr);
          core::EvolutionCheckpoint ck;
          // Decode validation rejects all-zero RNG state / empty population.
          ck.rng_state = {1, 2, 3, 4};
          ck.population.push_back({core::MakeExpertAlpha(13), 0.1});
          int64_t batch = 0;
          while (!stop->load(std::memory_order_acquire)) {
            ++batch;
            if (sink->WantCheckpoint(batch)) {
              ck.batches_committed = batch;
              ck.stats.candidates = batch * 8;
              sink->WriteCheckpoint(ck);
            }
            std::this_thread::sleep_for(1ms);
          }
          core::EvolutionResult stopped;
          stopped.stopped = true;
          return stopped;
        }
        EXPECT_NE(resume, nullptr);
        if (resume != nullptr) {
          EXPECT_GT(resume->batches_committed, 0);
        }
        return FakeDone(0.75);
      });
  sup.Start();
  const std::string id = sup.Submit(JobSpec{});
  // The cadence sink checkpoints at batch 4; batch 5 stamped means the
  // snapshot exists before we cancel.
  ASSERT_TRUE(WaitFor([&] {
    return sup.Status(id)->batches_committed >= 5;
  }));
  ASSERT_TRUE(sup.Cancel(id));
  ASSERT_TRUE(
      WaitFor([&] { return StateOf(sup, id) == JobState::kCancelled; }));
  EXPECT_EQ(sup.Status(id)->error, "cancelled");
  EXPECT_FALSE(sup.Cancel(id));  // terminal: nothing to cancel

  ASSERT_TRUE(sup.Resume(id));
  ASSERT_TRUE(WaitFor([&] { return StateOf(sup, id) == JobState::kDone; }));
  auto status = sup.Status(id);
  EXPECT_EQ(status->resumes, 1);
  EXPECT_DOUBLE_EQ(status->result.best_fitness, 0.75);
}

TEST(JobSupervisorTest, JobDeadlineCancelsWithStructuredError) {
  JobSupervisor sup(SupervisorOptions{},
                    [](const JobSpec&, core::CheckpointSink* sink,
                       const core::EvolutionCheckpoint*,
                       const std::atomic<bool>* stop) {
                      int64_t batch = 0;
                      while (!stop->load(std::memory_order_acquire)) {
                        sink->WantCheckpoint(++batch);  // heartbeat
                        std::this_thread::sleep_for(1ms);
                      }
                      core::EvolutionResult stopped;
                      stopped.stopped = true;
                      return stopped;
                    });
  sup.Start();
  JobSpec spec;
  spec.deadline_seconds = 0.05;
  const std::string id = sup.Submit(spec);
  ASSERT_TRUE(
      WaitFor([&] { return StateOf(sup, id) == JobState::kCancelled; }));
  EXPECT_EQ(sup.Status(id)->error, "deadline_exceeded");
}

TEST(JobSupervisorTest, OverduePendingJobNeverStarts) {
  // Submitted before Start and past its deadline by the time a worker takes
  // it: the job parks CANCELLED without its run function ever being called.
  std::atomic<int> calls{0};
  JobSupervisor sup(SupervisorOptions{},
                    [&](const JobSpec&, core::CheckpointSink*,
                        const core::EvolutionCheckpoint*,
                        const std::atomic<bool>*) {
                      calls.fetch_add(1);
                      return FakeDone(0.5);
                    });
  JobSpec spec;
  spec.deadline_seconds = 0.01;
  const std::string id = sup.Submit(spec);
  ASSERT_FALSE(id.empty());
  std::this_thread::sleep_for(30ms);
  sup.Start();
  ASSERT_TRUE(WaitFor([&] {
    const JobState state = StateOf(sup, id);
    return state != JobState::kPending && state != JobState::kRunning;
  }));
  const JobStatus status = *sup.Status(id);
  EXPECT_EQ(status.state, JobState::kCancelled);
  EXPECT_EQ(status.error, "deadline_exceeded");
  EXPECT_EQ(status.attempts, 0);
  sup.Drain();
  EXPECT_EQ(calls.load(), 0);
}

TEST(JobSupervisorTest, RecoverServesPersistedResultWithoutRerun) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("ae_service_" + std::to_string(::getpid()) + "_recover"))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SupervisorOptions options;
  options.checkpoint_dir = dir;

  std::string id;
  {
    JobSupervisor sup(options,
                      [](const JobSpec&, core::CheckpointSink*,
                         const core::EvolutionCheckpoint*,
                         const std::atomic<bool>*) { return FakeDone(0.6); });
    sup.Start();
    id = sup.Submit(JobSpec{});
    ASSERT_TRUE(
        WaitFor([&] { return StateOf(sup, id) == JobState::kDone; }));
    sup.Drain();
  }

  // A restarted supervisor must serve the result from the job's record: its
  // run function aborts the test if ever invoked.
  JobSupervisor restarted(
      options,
      [](const JobSpec&, core::CheckpointSink*,
         const core::EvolutionCheckpoint*,
         const std::atomic<bool>*) -> core::EvolutionResult {
        ADD_FAILURE() << "DONE job must not re-run after recovery";
        return FakeDone(0.0);
      });
  restarted.Recover();
  restarted.Start();
  auto status = restarted.Status(id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  ASSERT_TRUE(status->has_result);
  EXPECT_DOUBLE_EQ(status->result.best_fitness, 0.6);
  restarted.Drain();
  std::filesystem::remove_all(dir);
}

TEST(JobSupervisorTest, RecoverKeepsFailedJobsParked) {
  // A FAILED record survives a restart as FAILED, error included, and the
  // restarted supervisor runs it only once it is resumed.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("ae_service_" + std::to_string(::getpid()) + "_failed"))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SupervisorOptions options;
  options.checkpoint_dir = dir;

  std::string id;
  {
    JobSupervisor sup(options,
                      [](const JobSpec&, core::CheckpointSink*,
                         const core::EvolutionCheckpoint*,
                         const std::atomic<bool>*) -> core::EvolutionResult {
                        throw std::runtime_error("always broken");
                      });
    sup.Start();
    id = sup.Submit(JobSpec{});
    ASSERT_TRUE(
        WaitFor([&] { return StateOf(sup, id) == JobState::kFailed; }));
    sup.Drain();
  }

  std::atomic<int> calls{0};
  JobSupervisor restarted(options,
                          [&](const JobSpec&, core::CheckpointSink*,
                              const core::EvolutionCheckpoint*,
                              const std::atomic<bool>*) {
                            calls.fetch_add(1);
                            return FakeDone(0.4);
                          });
  restarted.Recover();
  restarted.Start();
  std::this_thread::sleep_for(100ms);  // no rerun comes by itself
  const JobStatus parked = *restarted.Status(id);
  EXPECT_EQ(parked.state, JobState::kFailed);
  EXPECT_EQ(parked.error, "always broken");
  EXPECT_EQ(calls.load(), 0);

  ASSERT_TRUE(restarted.Resume(id));
  ASSERT_TRUE(
      WaitFor([&] { return StateOf(restarted, id) == JobState::kDone; }));
  EXPECT_EQ(restarted.Status(id)->attempts, 2);
  EXPECT_EQ(calls.load(), 1);
  restarted.Drain();
  std::filesystem::remove_all(dir);
}

TEST(JobSupervisorTest, FailedRecordWriteKeepsThePreviousRecord) {
  // A job's record is published like every checkpoint generation (write
  // all, fsync, rename, fsync the directory): a failed write warns and
  // leaves the previous record in place, and the next publish of any job
  // writes it again.
  const std::string dir = FreshDir("record");
  SupervisorOptions options;
  options.checkpoint_dir = dir;
  fault::SetForTesting(fault::Kind::kNone);
  {
    // Never started: jobs move only through Submit and Cancel.
    JobSupervisor sup(options, MustNotRun());
    const std::string first = sup.Submit(JobSpec{});
    fault::SetForTesting(fault::Kind::kEnospc);
    ASSERT_TRUE(sup.Cancel(first));
    const std::string second = sup.Submit(JobSpec{});
    fault::SetForTesting(fault::Kind::kNone);
    ASSERT_FALSE(second.empty());
    EXPECT_NE(second, first);
    {
      JobSupervisor reader(options, MustNotRun());
      reader.Recover();
      const std::vector<JobStatus> jobs = reader.List();
      ASSERT_EQ(jobs.size(), 1u);
      EXPECT_EQ(jobs[0].id, first);
      EXPECT_EQ(jobs[0].state, JobState::kPending);
    }
    for (const std::string& id : {first, second}) {
      EXPECT_FALSE(std::filesystem::exists(dir + "/" + id + "/job.tmp"));
    }

    // With the fault cleared, the next publish heals both failed writes.
    const std::string third = sup.Submit(JobSpec{});
    JobSupervisor reader(options, MustNotRun());
    reader.Recover();
    EXPECT_EQ(reader.List().size(), 3u);
    ASSERT_TRUE(reader.Status(first).has_value());
    EXPECT_EQ(reader.Status(first)->state, JobState::kCancelled);
    ASSERT_TRUE(reader.Status(second).has_value());
    ASSERT_TRUE(reader.Status(third).has_value());
  }
  fault::ClearForTesting();
  std::filesystem::remove_all(dir);
}

TEST(JobSupervisorTest, RecoverSkipsAnUnreadableRecordAndNeverReusesItsId) {
  // An unreadable record costs its own job only. A job directory without a
  // readable record still holds its id, so a new job never meets a stale
  // stream under its own id.
  const std::string dir = FreshDir("unreadable");
  SupervisorOptions options;
  options.checkpoint_dir = dir;
  {
    JobSupervisor sup(options,
                      [](const JobSpec&, core::CheckpointSink*,
                         const core::EvolutionCheckpoint*,
                         const std::atomic<bool>*) { return FakeDone(0.6); });
    sup.Start();
    for (const char* id : {"job-1", "job-2", "job-3"}) {
      ASSERT_EQ(sup.Submit(JobSpec{}), id);
    }
    ASSERT_TRUE(WaitFor([&] {
      return sup.StateCounts()[static_cast<size_t>(JobState::kDone)] == 3;
    }));
  }
  std::string record = ReadFile(dir + "/job-2/job");
  ASSERT_FALSE(record.empty());
  record[record.size() / 2] ^= 0x01;
  WriteFile(dir + "/job-2/job", record);
  core::EvolutionCheckpoint ck;
  ck.rng_state = {1, 2, 3, 4};
  ck.population.push_back({core::MakeExpertAlpha(13), 0.1});
  std::filesystem::create_directories(dir + "/job-7");
  WriteFile(dir + "/job-7/search.g00000001.ckpt",
            serde::Seal(ckpt::kSearchSnapshotKind,
                        ckpt::EncodeSearchSnapshot(ck)));

  std::atomic<int> calls{0};
  JobSupervisor restarted(options, [&](const JobSpec&, core::CheckpointSink*,
                                       const core::EvolutionCheckpoint* resume,
                                       const std::atomic<bool>*) {
    calls.fetch_add(1);
    EXPECT_EQ(resume, nullptr);
    return FakeDone(0.3);
  });
  restarted.Recover();
  restarted.Start();
  for (const char* id : {"job-1", "job-3"}) {
    SCOPED_TRACE(id);
    const auto status = restarted.Status(id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::kDone);
    ASSERT_TRUE(status->has_result);
    EXPECT_DOUBLE_EQ(status->result.best_fitness, 0.6);
  }
  EXPECT_FALSE(restarted.Status("job-2").has_value());
  EXPECT_FALSE(restarted.Status("job-7").has_value());
  EXPECT_EQ(restarted.List().size(), 2u);
  const std::string next = restarted.Submit(JobSpec{});
  EXPECT_EQ(next, "job-8");
  ASSERT_TRUE(
      WaitFor([&] { return StateOf(restarted, next) == JobState::kDone; }));
  restarted.Drain();
  EXPECT_EQ(calls.load(), 1);  // job-8's attempt, and nothing recovered
  std::filesystem::remove_all(dir);
}

TEST(JobSupervisorTest, RecoverSkipsARecordWhoseProgramCannotRun) {
  // A CRC-valid record can still hold a program no search writes: one that
  // reads register s250, or extracts feature row 13 of a 13-row window.
  // Serving it would run it (pruning indexes its live set by register), so
  // the decoder refuses it and Recover skips the job like any undecodable
  // record. The unchanged program, re-sealed the same way, is served.
  const std::string dir = FreshDir("wild_program");
  SupervisorOptions options;
  options.checkpoint_dir = dir;
  {
    JobSupervisor sup(options,
                      [](const JobSpec&, core::CheckpointSink*,
                         const core::EvolutionCheckpoint*,
                         const std::atomic<bool>*) { return FakeDone(0.6); });
    sup.Start();
    ASSERT_EQ(sup.Submit(JobSpec{}), "job-1");
    ASSERT_TRUE(
        WaitFor([&] { return StateOf(sup, "job-1") == JobState::kDone; }));
  }
  const serde::Envelope env = serde::Open(ReadFile(dir + "/job-1/job"));
  ASSERT_EQ(env.kind, kJobRecordKind);
  auto encode = [](const core::AlphaProgram& program) {
    serde::Writer w;
    ckpt::EncodeProgram(w, program);
    return w.Take();
  };
  const core::AlphaProgram served = core::MakeExpertAlpha(13);
  const std::string served_bytes = encode(served);
  const size_t at = env.payload.find(served_bytes);
  ASSERT_NE(at, std::string::npos);

  core::AlphaProgram wild_register = served;
  for (core::Instruction& ins : wild_register.predict) ins.in1 = 250;
  core::AlphaProgram wild_immediate = served;
  ASSERT_EQ(wild_immediate.predict[0].op, core::Op::kGetScalar);
  wild_immediate.predict[0].idx0 = 13;
  const std::vector<std::pair<core::AlphaProgram, bool>> cases = {
      {served, true}, {wild_register, false}, {wild_immediate, false}};
  for (const auto& [program, recoverable] : cases) {
    SCOPED_TRACE(program.ToString());
    std::string payload = env.payload;
    payload.replace(at, served_bytes.size(), encode(program));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/job-1");
    WriteFile(dir + "/job-1/job", serde::Seal(kJobRecordKind, payload));
    JobSupervisor restarted(options, MustNotRun());  // never started
    restarted.Recover();
    EXPECT_EQ(restarted.Status("job-1").has_value(), recoverable);
    EXPECT_EQ(restarted.Submit(JobSpec{}), "job-2");
  }
  std::filesystem::remove_all(dir);
}

TEST(JobSupervisorTest, DeadlineSurvivesARestart) {
  // The deadline is for the whole job: its record keeps the absolute time,
  // so a restarted daemon does not grant the job a fresh one.
  const std::string dir = FreshDir("deadline");
  SupervisorOptions options;
  options.checkpoint_dir = dir;
  std::string id;
  {
    JobSupervisor sup(options, MustNotRun());  // never started
    JobSpec spec;
    spec.deadline_seconds = 0.05;
    id = sup.Submit(spec);
    ASSERT_FALSE(id.empty());
  }
  std::this_thread::sleep_for(100ms);

  std::atomic<int> calls{0};
  JobSupervisor restarted(options, [&](const JobSpec&, core::CheckpointSink*,
                                       const core::EvolutionCheckpoint*,
                                       const std::atomic<bool>*) {
    calls.fetch_add(1);
    return FakeDone(0.5);
  });
  restarted.Recover();
  restarted.Start();
  ASSERT_TRUE(WaitFor([&] {
    const JobState state = StateOf(restarted, id);
    return state != JobState::kPending && state != JobState::kRunning;
  }));
  const JobStatus status = *restarted.Status(id);
  EXPECT_EQ(status.state, JobState::kCancelled);
  EXPECT_EQ(status.error, "deadline_exceeded");
  EXPECT_EQ(status.attempts, 0);
  restarted.Drain();
  EXPECT_EQ(calls.load(), 0);
  std::filesystem::remove_all(dir);
}

TEST(JobSupervisorTest, RecoverSurvivesEveryTruncatedOrOverwrittenRecord) {
  // Deterministic fuzzing of the record decoder: every truncation of a DONE
  // job's record payload, and a 0xff byte at every offset, re-sealed so the
  // CRC passes and the decoder itself sees the bytes. Each variant decodes
  // or is skipped, brings back at most one job, and never costs an id.
  const std::string dir = FreshDir("fuzz");
  SupervisorOptions options;
  options.checkpoint_dir = dir;
  {
    JobSupervisor sup(options,
                      [](const JobSpec&, core::CheckpointSink*,
                         const core::EvolutionCheckpoint*,
                         const std::atomic<bool>*) { return FakeDone(0.6); });
    sup.Start();
    const std::string id = sup.Submit(JobSpec{});
    ASSERT_EQ(id, "job-1");
    ASSERT_TRUE(WaitFor([&] { return StateOf(sup, id) == JobState::kDone; }));
  }
  const serde::Envelope env = serde::Open(ReadFile(dir + "/job-1/job"));
  ASSERT_EQ(env.kind, kJobRecordKind);
  const std::string& payload = env.payload;
  std::vector<std::string> variants;
  for (size_t n = 0; n < payload.size(); ++n) {
    variants.push_back(payload.substr(0, n));
    variants.push_back(payload);
    variants.back()[n] = static_cast<char>(0xff);
  }
  size_t recovered = 0;
  for (size_t v = 0; v < variants.size(); ++v) {
    SCOPED_TRACE("variant " + std::to_string(v));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/job-1");
    WriteFile(dir + "/job-1/job", serde::Seal(kJobRecordKind, variants[v]));
    JobSupervisor sup(options, MustNotRun());  // never started
    sup.Recover();
    EXPECT_LE(sup.List().size(), 1u);
    recovered += sup.List().size();
    EXPECT_EQ(sup.Submit(JobSpec{}), "job-2");
  }
  // Both outcomes occur: overwritten doubles decode, truncations do not.
  EXPECT_GT(recovered, 0u);
  EXPECT_LT(recovered, variants.size());
  std::filesystem::remove_all(dir);
}

TEST(JobSupervisorTest, DrainParksRunningJobsPendingForNextProcess) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("ae_service_" + std::to_string(::getpid()) + "_drain"))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SupervisorOptions options;
  options.checkpoint_dir = dir;

  std::string id;
  {
    JobSupervisor sup(
        options,
        [](const JobSpec&, core::CheckpointSink* sink,
           const core::EvolutionCheckpoint*, const std::atomic<bool>* stop) {
          core::EvolutionCheckpoint ck;
          // Decode validation rejects all-zero RNG state / empty population.
          ck.rng_state = {1, 2, 3, 4};
          ck.population.push_back({core::MakeExpertAlpha(13), 0.1});
          int64_t batch = 0;
          while (!stop->load(std::memory_order_acquire)) {
            ++batch;
            if (sink->WantCheckpoint(batch)) {
              ck.batches_committed = batch;
              sink->WriteCheckpoint(ck);
            }
            std::this_thread::sleep_for(1ms);
          }
          core::EvolutionResult stopped;
          stopped.stopped = true;
          return stopped;
        });
    sup.Start();
    id = sup.Submit(JobSpec{});
    // Past the batch-4 cadence barrier: a durable snapshot exists.
    ASSERT_TRUE(
        WaitFor([&] { return sup.Status(id)->batches_committed >= 5; }));
    sup.Drain();
    EXPECT_EQ(StateOf(sup, id), JobState::kPending);
    EXPECT_TRUE(sup.Submit(JobSpec{}).empty());  // intake closed
  }
  // The checkpoint stream survived the drain for the next process.
  EXPECT_TRUE(ckpt::LoadNewest(dir + "/" + id, "search").has_value());

  JobSupervisor next(options,
                     [](const JobSpec&, core::CheckpointSink*,
                        const core::EvolutionCheckpoint* resume,
                        const std::atomic<bool>*) {
                       EXPECT_NE(resume, nullptr);
                       if (resume != nullptr) {
                         EXPECT_GT(resume->batches_committed, 0);
                       }
                       return FakeDone(0.9);
                     });
  next.Recover();
  next.Start();
  ASSERT_TRUE(WaitFor([&] { return StateOf(next, id) == JobState::kDone; }));
  EXPECT_EQ(next.Status(id)->resumes, 1);
  next.Drain();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Op-level cancellation against the real search engine: a stop token flipped
// mid-run must leave a valid newest checkpoint from which a fresh Evolution
// finishes bit-identical to the uncancelled candidate-bounded run.

class ServiceSearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    market::MarketConfig mc;
    mc.num_stocks = 24;
    mc.num_days = 220;
    mc.seed = 13;
    dataset_ = new market::Dataset(
        market::Dataset::Simulate(mc, market::DatasetConfig{}));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  void SetUp() override {
    fault::SetForTesting(fault::Kind::kNone);
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            ("ae_service_" + std::to_string(::getpid()) + "_" + info->name()))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    fault::ClearForTesting();
  }

  static core::EvolutionConfig SearchConfig() {
    core::EvolutionConfig cfg;
    cfg.max_candidates = 240;
    cfg.population_size = 20;
    cfg.tournament_size = 5;
    cfg.batch_size = 8;
    cfg.seed = 7;
    return cfg;
  }

  std::string dir_;
  static market::Dataset* dataset_;
};

market::Dataset* ServiceSearchTest::dataset_ = nullptr;

/// Flips a stop token once `after_batches` barriers have committed, from
/// inside the sink callback — deterministic mid-run cancellation.
class CancelAfterSink : public core::CheckpointSink {
 public:
  CancelAfterSink(core::CheckpointSink* inner, std::atomic<bool>* token,
                  int64_t after_batches)
      : inner_(inner), token_(token), after_(after_batches) {}
  bool WantCheckpoint(int64_t batches_committed) override {
    if (batches_committed >= after_) {
      token_->store(true, std::memory_order_release);
    }
    return inner_->WantCheckpoint(batches_committed);
  }
  void WriteCheckpoint(const core::EvolutionCheckpoint& ck) override {
    inner_->WriteCheckpoint(ck);
  }

 private:
  core::CheckpointSink* inner_;
  std::atomic<bool>* token_;
  int64_t after_;
};

TEST_F(ServiceSearchTest, CancelledRunLeavesValidNewestCheckpointAndResumes) {
  const core::EvolutionConfig cfg = SearchConfig();
  core::EvaluatorPool pool(*dataset_, core::EvaluatorConfig{}, 1);
  const core::AlphaProgram init = core::MakeExpertAlpha(dataset_->window());

  core::Evolution reference(pool, cfg);
  const core::EvolutionResult uncancelled = reference.Run(init);
  ASSERT_TRUE(uncancelled.has_alpha);
  EXPECT_FALSE(uncancelled.stopped);

  // Cancel mid-run at the 6th barrier (of 30): the forced final snapshot
  // must capture exactly the committed state.
  ckpt::WriterOptions wo;
  wo.every_batches = 4;
  ckpt::CheckpointWriter writer(dir_, "job", wo);
  std::atomic<bool> token{false};
  CancelAfterSink sink(&writer, &token, /*after_batches=*/6);
  core::Evolution cancelled_evo(pool, cfg);
  cancelled_evo.UseCheckpointSink(&sink);
  cancelled_evo.UseStopToken(&token);
  const core::EvolutionResult cancelled = cancelled_evo.Run(init);
  EXPECT_TRUE(cancelled.stopped);
  EXPECT_LT(cancelled.stats.candidates, uncancelled.stats.candidates);
  writer.Flush();

  const auto newest = ckpt::LoadNewest(dir_, "job");
  ASSERT_TRUE(newest.has_value()) << "cancel must leave a valid checkpoint";
  ASSERT_EQ(newest->kind, ckpt::kSearchSnapshotKind);
  const core::EvolutionCheckpoint snap =
      ckpt::DecodeSearchSnapshot(newest->payload);
  EXPECT_GE(snap.batches_committed, 6);

  core::Evolution resumed_evo(pool, cfg);
  resumed_evo.ResumeFrom(snap);
  const core::EvolutionResult resumed = resumed_evo.Run(init);
  EXPECT_FALSE(resumed.stopped);
  EXPECT_EQ(resumed.best, uncancelled.best);
  EXPECT_DOUBLE_EQ(resumed.best_fitness, uncancelled.best_fitness);
  EXPECT_EQ(resumed.stats.candidates, uncancelled.stats.candidates);
  EXPECT_EQ(resumed.stats.evaluated, uncancelled.stats.evaluated);
  EXPECT_EQ(resumed.stats.cache_hits, uncancelled.stats.cache_hits);
  EXPECT_EQ(resumed.stats.cutoff_discarded,
            uncancelled.stats.cutoff_discarded);
}

// ---------------------------------------------------------------------------
// End-to-end service: the op catalog over the real engine.

ServiceOptions SmallService(const std::string& dir) {
  ServiceOptions options;
  options.num_stocks = 24;
  options.num_days = 220;
  options.data_seed = 13;
  options.eval_threads = 2;
  options.op_workers = 2;
  options.supervisor.checkpoint_dir = dir;
  options.supervisor.checkpoint_every_batches = 2;
  options.default_job.max_candidates = 96;
  options.default_job.population_size = 20;
  options.default_job.tournament_size = 5;
  options.default_job.batch_size = 8;
  return options;
}

JsonValue Ok(const std::string& response) {
  JsonValue doc = JsonValue::Parse(response);
  EXPECT_TRUE(doc.At("ok").AsBool()) << response;
  return doc;
}

std::string ErrCode(const std::string& response) {
  JsonValue doc = JsonValue::Parse(response);
  EXPECT_FALSE(doc.At("ok").AsBool()) << response;
  return doc.At("error").At("code").AsString();
}

TEST_F(ServiceSearchTest, OpCatalogEndToEnd) {
  AlphaService service(SmallService(dir_));

  // Readiness, malformed input, unknown ops, unknown jobs.
  EXPECT_EQ(Ok(service.Call(R"({"op":"health","id":"h"})"))
                .At("result").At("status").AsString(),
            "ok");
  EXPECT_EQ(ErrCode(service.Call("garbage")), std::string(kErrBadRequest));
  EXPECT_EQ(ErrCode(service.Call(R"({"op":"teleport","id":"t"})")),
            std::string(kErrBadRequest));
  EXPECT_EQ(ErrCode(service.Call(
                R"({"op":"job_status","id":"q","params":{"job":"job-99"}})")),
            std::string(kErrNotFound));
  EXPECT_EQ(ErrCode(service.Call(
                R"({"op":"submit_search","id":"b","params":{"batch_size":0}})")),
            std::string(kErrInvalidArgument));

  // Run one search to completion through the protocol.
  JsonValue submitted = Ok(service.Call(
      R"({"op":"submit_search","id":"s1","params":{"seed":7}})"));
  const std::string job = submitted.At("result").At("job").AsString();
  ASSERT_TRUE(WaitFor(
      [&] {
        JsonValue doc = Ok(service.Call(
            R"({"op":"job_status","id":"p","params":{"job":")" + job +
            R"("}})"));
        return doc.At("result").At("state").AsString() == "done";
      },
      60000ms));
  // health counts the jobs in each state.
  const JsonValue counts = Ok(service.Call(R"({"op":"health","id":"h1"})"))
                               .At("result")
                               .At("jobs");
  EXPECT_EQ(counts.At("done").AsInt(), 1);
  for (const char* state : {"pending", "running", "failed", "cancelled"}) {
    EXPECT_EQ(counts.At(state).AsInt(), 0) << state;
  }

  JsonValue result = Ok(service.Call(
      R"({"op":"job_result","id":"r","params":{"job":")" + job + R"("}})"));
  EXPECT_TRUE(result.At("result").At("has_alpha").AsBool());
  const double fitness = result.At("result").At("best_fitness").AsDouble();

  // query_alphas lists the mined set; backtest reproduces the search's own
  // reported metrics for the winner (same pruned program + seed).
  JsonValue alphas = Ok(service.Call(R"({"op":"query_alphas","id":"qa"})"));
  ASSERT_EQ(alphas.At("result").At("alphas").AsArray().size(), 1u);
  EXPECT_DOUBLE_EQ(alphas.At("result").At("alphas").AsArray()[0]
                       .At("fitness").AsDouble(),
                   fitness);
  JsonValue backtest = Ok(service.Call(
      R"({"op":"backtest","id":"bt","params":{"job":")" + job + R"("}})"));
  EXPECT_DOUBLE_EQ(backtest.At("result").At("ic_valid").AsDouble(),
                   result.At("result").At("metrics").At("ic_valid")
                       .AsDouble());

  // stress rows carry the backtest's field set, `valid` included, so a
  // regime whose predictions went non-finite reads as invalid rather than
  // as a flat alpha.
  JsonValue stress = Ok(service.Call(
      R"({"op":"stress","id":"st","params":{"job":")" + job +
      R"(","scenarios":2}})"));
  const auto& rows = stress.At("result").At("scenarios").AsArray();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].At("scenario").AsString(), "baseline");
  EXPECT_EQ(rows[1].At("scenario").AsString(), "crash");
  for (const char* key :
       {"valid", "ic_valid", "ic_test", "sharpe_valid", "sharpe_test",
        "sharpe_valid_net", "sharpe_test_net", "mean_turnover_valid",
        "mean_turnover_test"}) {
    SCOPED_TRACE(key);
    EXPECT_TRUE(rows[0].Contains(key));
    EXPECT_TRUE(rows[1].Contains(key));
    EXPECT_TRUE(backtest.At("result").Contains(key));
  }

  // Signal lookups: a full prediction row per date, out-of-range rejected.
  JsonValue signals = Ok(service.Call(
      R"({"op":"signals","id":"sg","params":{"job":")" + job +
      R"(","split":"valid","date":0}})"));
  EXPECT_EQ(static_cast<int>(
                signals.At("result").At("predictions").AsArray().size()),
            service.dataset().num_tasks());
  EXPECT_EQ(ErrCode(service.Call(
                R"({"op":"signals","id":"sg2","params":{"job":")" + job +
                R"(","split":"valid","date":99999}})")),
            std::string(kErrInvalidArgument));

  // A finished job is terminal: neither cancel_job nor resume_job applies.
  for (const char* op : {"cancel_job", "resume_job"}) {
    EXPECT_EQ(ErrCode(service.Call(std::string(R"({"op":")") + op +
                                   R"(","id":"t","params":{"job":")" + job +
                                   R"("}})")),
              std::string(kErrNotFound));
  }

  // metrics exposes the service.* instruments when telemetry is on; the
  // op itself must work either way.
  Ok(service.Call(R"({"op":"metrics","id":"m"})"));

  // Drain: subsequent intake is rejected, health still answers.
  service.Drain();
  EXPECT_EQ(ErrCode(service.Call(R"({"op":"list_jobs","id":"l"})")),
            std::string(kErrDraining));
  EXPECT_EQ(Ok(service.Call(R"({"op":"health","id":"h2"})"))
                .At("result").At("status").AsString(),
            "draining");
}

/// Holds a search at batch barrier `at` until its stop token reads true, so
/// a cancel always lands mid-run: the job can neither finish before the
/// cancel arrives nor be cancelled before it starts. Fulfils `parked` once
/// the search is held.
class ParkAtBarrierSink : public core::CheckpointSink {
 public:
  ParkAtBarrierSink(core::CheckpointSink* inner,
                    const std::atomic<bool>* stop, int64_t at,
                    std::promise<void>* parked)
      : inner_(inner), stop_(stop), at_(at), parked_(parked) {}
  bool WantCheckpoint(int64_t batches_committed) override {
    const bool want = inner_->WantCheckpoint(batches_committed);
    if (batches_committed == at_) {
      parked_->set_value();
      while (!stop_->load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
    return want;
  }
  void WriteCheckpoint(const core::EvolutionCheckpoint& ck) override {
    inner_->WriteCheckpoint(ck);
  }

 private:
  core::CheckpointSink* inner_;
  const std::atomic<bool>* stop_;
  int64_t at_;
  std::promise<void>* parked_;
};

TEST_F(ServiceSearchTest, CancelledJobResumesByteIdenticalToUninterrupted) {
  // The service's resume contract, through the supervisor that runs its
  // jobs on the real engine: job 1 is cancelled mid-run, then resumed; job 2
  // runs the same search uninterrupted. Their encoded results must be
  // byte-identical. Job 1's first attempt parks at barrier 2 until its stop
  // token flips, so the cancel always lands mid-run.
  core::EvaluatorPool pool(*dataset_, core::EvaluatorConfig{}, 2);
  std::promise<void> parked;
  std::future<void> held = parked.get_future();
  std::atomic<bool> park_next{true};
  SupervisorOptions options;
  options.checkpoint_dir = dir_;
  options.checkpoint_every_batches = 2;
  JobSupervisor sup(options, [&](const JobSpec&, core::CheckpointSink* sink,
                                 const core::EvolutionCheckpoint* resume,
                                 const std::atomic<bool>* stop) {
    ParkAtBarrierSink park(sink, stop, /*at=*/2, &parked);
    core::Evolution evolution(pool, SearchConfig());
    evolution.UseCheckpointSink(park_next.exchange(false) ? &park : sink);
    evolution.UseStopToken(stop);
    if (resume != nullptr) evolution.ResumeFrom(*resume);
    return evolution.Run(core::MakeExpertAlpha(dataset_->window()));
  });
  sup.Start();

  const std::string job1 = sup.Submit(JobSpec{});
  held.wait();
  ASSERT_TRUE(sup.Cancel(job1));
  ASSERT_TRUE(WaitFor(
      [&] { return StateOf(sup, job1) == JobState::kCancelled; }, 60000ms));
  // The cancel left a valid newest checkpoint behind, and no result.
  EXPECT_TRUE(ckpt::LoadNewest(dir_ + "/" + job1, "search").has_value());
  EXPECT_FALSE(sup.Status(job1)->has_result);

  ASSERT_TRUE(sup.Resume(job1));
  const std::string job2 = sup.Submit(JobSpec{});
  ASSERT_TRUE(WaitFor(
      [&] {
        return StateOf(sup, job1) == JobState::kDone &&
               StateOf(sup, job2) == JobState::kDone;
      },
      120000ms));
  const JobStatus status1 = *sup.Status(job1);
  const JobStatus status2 = *sup.Status(job2);
  EXPECT_GE(status1.resumes, 1);  // resumed, not restarted
  EXPECT_EQ(status2.resumes, 0);
  EXPECT_EQ(JobSupervisor::EncodeResult(status1.result),
            JobSupervisor::EncodeResult(status2.result))
      << "resumed job result must be byte-identical to uninterrupted run";
  sup.Drain();
}

TEST_F(ServiceSearchTest, DeadlineExceededUnderInjectedDelay) {
  // AE_FAULT=delay makes the op worker sleep 100ms between the two deadline
  // checks, so a 30ms deadline deterministically expires mid-handling.
  ServiceOptions options = SmallService(dir_);
  options.op_workers = 1;
  AlphaService service(options);
  fault::SetForTesting(fault::Kind::kDelay);
  EXPECT_EQ(ErrCode(service.Call(
                R"({"op":"list_jobs","id":"slow","deadline_ms":30})")),
            std::string(kErrDeadlineExceeded));
  fault::SetForTesting(fault::Kind::kNone);
  // Without the fault the same deadline is generous.
  Ok(service.Call(R"({"op":"list_jobs","id":"fast","deadline_ms":5000})"));
}

TEST_F(ServiceSearchTest, FullQueueRejectsWithStructuredError) {
  ServiceOptions options = SmallService(dir_);
  options.op_workers = 1;
  options.queue_capacity = 1;
  AlphaService service(options);
  // Every op's handling sleeps 100ms (persistent delay fault), so the
  // single worker is busy while later submissions hit the bounded queue.
  fault::SetForTesting(fault::Kind::kDelay);
  std::mutex mu;
  std::vector<std::string> responses;
  std::atomic<int> pending{3};
  for (int i = 0; i < 3; ++i) {
    service.Submit(R"({"op":"list_jobs","id":"q)" + std::to_string(i) +
                       R"("})",
                   [&](const std::string& response) {
                     std::lock_guard<std::mutex> lock(mu);
                     responses.push_back(response);
                     pending.fetch_sub(1);
                   });
  }
  ASSERT_TRUE(WaitFor([&] { return pending.load() == 0; }));
  fault::SetForTesting(fault::Kind::kNone);
  int ok = 0, full = 0;
  for (const std::string& response : responses) {
    JsonValue doc = JsonValue::Parse(response);
    if (doc.At("ok").AsBool()) {
      ++ok;
    } else if (doc.At("error").At("code").AsString() == kErrQueueFull) {
      ++full;
    }
  }
  EXPECT_GE(ok, 1);   // admitted work still completes
  EXPECT_GE(full, 1); // and the overflow was told so, immediately
  // health answers inline even with the queue busy.
  Ok(service.Call(R"({"op":"health","id":"h"})"));
}

TEST_F(ServiceSearchTest, RequestLinesAreCappedBeforeParsing) {
  // A health request padded with whitespace to exactly the cap is served;
  // one byte more and the same request is refused unparsed.
  AlphaService service(SmallService(dir_));
  const std::string head = R"({"op":"health","id":"pad")";
  const std::string at_cap =
      head + std::string(kMaxRequestBytes - head.size() - 1, ' ') + "}";
  ASSERT_EQ(at_cap.size(), kMaxRequestBytes);
  EXPECT_EQ(Ok(service.Call(at_cap)).At("result").At("status").AsString(),
            "ok");
  const std::string over_cap = head + std::string(kMaxRequestBytes - head.size(),
                                                  ' ') + "}";
  ASSERT_EQ(over_cap.size(), kMaxRequestBytes + 1);
  const std::string response = service.Call(over_cap);
  EXPECT_EQ(ErrCode(response), std::string(kErrInvalidArgument));
  EXPECT_NE(response.find(std::to_string(kMaxRequestBytes)), std::string::npos)
      << response;
}

TEST_F(ServiceSearchTest, DeadlinesPastOneDayAreRefusedAtIntake) {
  // Admission turns deadline_ms into a steady_clock duration; past ~9.2e12
  // ms that conversion overflows (undefined behaviour), and the JSON reader
  // turns 1e400 into inf. A deadline over kMaxDeadlineMs is refused inline,
  // before admission; the cap itself runs.
  {
    AlphaService service(SmallService(dir_));
    for (const char* ms : {"1e15", "1e300", "1e400", "86400000.5"}) {
      SCOPED_TRACE(ms);
      const std::string response = service.Call(
          std::string(R"({"op":"list_jobs","id":"d","deadline_ms":)") + ms +
          "}");
      EXPECT_EQ(ErrCode(response), std::string(kErrInvalidArgument));
      EXPECT_NE(response.find("deadline_ms"), std::string::npos) << response;
    }
    ASSERT_EQ(kMaxDeadlineMs, 86400000.0);
    Ok(service.Call(R"({"op":"list_jobs","id":"cap","deadline_ms":86400000})"));
  }
  // The default deadline obeys the same cap, checked at construction.
  ServiceOptions options = SmallService(dir_);
  for (const double bad : {1e15, -1.0, std::nan("")}) {
    SCOPED_TRACE(bad);
    options.default_deadline_ms = bad;
    EXPECT_THROW(AlphaService{options}, CheckError);
  }
  options.default_deadline_ms = kMaxDeadlineMs;
  AlphaService service(options);
  Ok(service.Call(R"({"op":"list_jobs","id":"inherits"})"));
}

TEST_F(ServiceSearchTest, DefaultJobAndQueueAreCheckedAtConstruction) {
  // A param a client leaves out takes its value from default_job, so the
  // default job obeys submit_search's ranges; an empty op queue would answer
  // every queued op queue_full. Each is refused before anything simulates.
  const std::vector<std::function<void(ServiceOptions&)>> bad = {
      [](ServiceOptions& o) { o.default_job.max_candidates = 0; },
      [](ServiceOptions& o) { o.default_job.population_size = 1; },
      [](ServiceOptions& o) { o.default_job.tournament_size = 0; },
      [](ServiceOptions& o) {
        o.default_job.tournament_size = o.default_job.population_size + 1;
      },
      [](ServiceOptions& o) { o.default_job.batch_size = 0; },
      [](ServiceOptions& o) { o.queue_capacity = 0; },
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE(i);
    ServiceOptions options = SmallService(dir_);
    bad[i](options);
    EXPECT_THROW(AlphaService{options}, CheckError);
  }
  AlphaService service(SmallService(dir_));
  Ok(service.Call(R"({"op":"health","id":"defaults"})"));
}

TEST_F(ServiceSearchTest, PanelTooNarrowForTheBookIsRefused) {
  // One stock cannot hold a long and a short leg, so every job would fail
  // at its first book; the simulated panel is refused at construction.
  ServiceOptions options = SmallService(dir_);
  options.num_stocks = 1;
  EXPECT_THROW(AlphaService{options}, CheckError);
}

TEST_F(ServiceSearchTest, EveryMangledRequestGetsOneWellFormedLine) {
  // Deterministic fuzzing of the line protocol: every prefix of each cheap
  // request, and the request with a 0xff byte at each offset. The service
  // answers each with one JSON object line whose `ok` is a bool and whose
  // error, when present, carries a documented code other than `internal`
  // (an op that threw); the JSON reader itself returns or throws
  // CheckError, nothing else.
  AlphaService service(SmallService(dir_));
  const std::vector<std::string> corpus = {
      R"({"op":"health","id":"h"})",
      R"({"op":"job_status","id":"s","params":{"job":"job-1"}})",
      R"({"op":"list_jobs","id":"l"})",
      R"({"op":"metrics","id":"m"})",
      R"({"op":"signals","id":"g","params":{"job":"job-9","split":"valid",)"
      R"("date":0}})",
      R"({"op":"list_jobs","id":"d","deadline_ms":5000})",
  };
  const std::vector<std::string> codes = {
      kErrBadRequest, kErrInvalidArgument, kErrQueueFull, kErrDraining,
      kErrDeadlineExceeded, kErrNotFound};
  std::vector<std::string> variants;
  for (const std::string& line : corpus) {
    for (size_t n = 0; n < line.size(); ++n) {
      variants.push_back(line.substr(0, n));
      variants.push_back(line);
      variants.back()[n] = static_cast<char>(0xff);
    }
    variants.push_back(line);
  }
  size_t ok = 0;
  for (size_t v = 0; v < variants.size(); ++v) {
    SCOPED_TRACE("variant " + std::to_string(v) + ": " + variants[v]);
    EXPECT_NO_THROW({
      try {
        JsonValue::Parse(variants[v]);
      } catch (const CheckError&) {
        // Refused: the one error the reader raises.
      }
    });
    const std::string response = service.Call(variants[v]);
    EXPECT_EQ(response.find('\n'), std::string::npos) << response;
    JsonValue doc;
    ASSERT_NO_THROW(doc = JsonValue::Parse(response)) << response;
    ASSERT_TRUE(doc.is_object()) << response;
    ASSERT_TRUE(doc.Contains("ok") && doc.At("ok").is_bool()) << response;
    if (doc.At("ok").AsBool()) {
      ++ok;
      EXPECT_TRUE(doc.Contains("result")) << response;
      continue;
    }
    ASSERT_TRUE(doc.Contains("error") && doc.At("error").Contains("code") &&
                doc.At("error").At("code").is_string())
        << response;
    const std::string& code = doc.At("error").At("code").AsString();
    EXPECT_NE(std::find(codes.begin(), codes.end(), code), codes.end())
        << response;
  }
  // The unmangled health, list_jobs and metrics requests (at least) pass.
  EXPECT_GE(ok, 4u);
}

TEST_F(ServiceSearchTest, NumericParamsAreCheckedIntegers) {
  // Client numbers are doubles; each integer param must be integral and in
  // range before any cast, or the op answers invalid_argument (1e300 or a
  // negative seed would be undefined behaviour, 2.5 silently truncated).
  // Every other typed param is checked at the edge too: a wrong JSON type
  // answers invalid_argument naming the param, never an internal error.
  AlphaService service(SmallService(dir_));
  struct Case {
    const char* op;
    const char* param;
    std::vector<const char*> bad;
  };
  const std::vector<Case> cases = {
      {"submit_search", "seed", {"-1", "1e300", "2.5", "\"7\""}},
      {"submit_search", "max_candidates", {"0", "-5", "1e300", "9.5"}},
      {"submit_search", "population_size", {"1", "1e10", "20.5", "null"}},
      {"submit_search", "tournament_size", {"0", "-1e300", "2.25", "21"}},
      {"submit_search", "batch_size", {"0", "3e9", "1.5", "true"}},
      {"submit_search", "deadline_seconds", {"\"soon\"", "null", "[1]"}},
      {"signals", "date", {"-1", "1e300", "0.5", "\"0\""}},
      {"signals", "split", {"5", "null", "\"train\""}},
      {"stress", "scenarios", {"-1", "1e300", "1.5"}},
  };
  int n = 0;
  for (const Case& c : cases) {
    for (const char* value : c.bad) {
      SCOPED_TRACE(std::string(c.op) + " " + c.param + "=" + value);
      const std::string line =
          std::string(R"({"op":")") + c.op + R"(","id":"c)" +
          std::to_string(n++) + R"(","params":{"job":"job-1",")" + c.param +
          R"(":)" + value + "}}";
      const std::string response = service.Call(line);
      EXPECT_EQ(ErrCode(response), std::string(kErrInvalidArgument));
      EXPECT_NE(response.find(c.param), std::string::npos) << response;
    }
  }
  EXPECT_TRUE(service.supervisor().List().empty());  // nothing was queued

  // Integral doubles at the edges are accepted.
  Ok(service.Call(
      R"({"op":"submit_search","id":"ok","params":{"seed":9007199254740992,)"
      R"("max_candidates":8.0,"population_size":2,"tournament_size":1,)"
      R"("batch_size":4}})"));
}

TEST_F(ServiceSearchTest, SignalsCacheStaysBoundedAndServesEveryJob) {
  // More jobs than the signals cache holds: every job's signals are served
  // (an evicted job is recomputed) and match a fresh run of its alpha, and
  // the cache never holds more than its cap.
  ServiceOptions options = SmallService(dir_);
  options.supervisor.worker_threads = 2;
  AlphaService service(options);
  const int num_jobs = static_cast<int>(AlphaService::kSignalsCacheCap) + 3;
  std::vector<std::string> jobs;
  for (int i = 0; i < num_jobs; ++i) {
    JsonValue submitted = Ok(service.Call(
        R"({"op":"submit_search","id":"s","params":{"seed":)" +
        std::to_string(100 + i) + "}}"));
    jobs.push_back(submitted.At("result").At("job").AsString());
  }
  ASSERT_TRUE(WaitFor(
      [&] {
        for (const std::string& job : jobs) {
          if (StateOf(service.supervisor(), job) != JobState::kDone) {
            return false;
          }
        }
        return true;
      },
      120000ms));

  const auto signals_of = [&](const std::string& job) {
    JsonValue doc = Ok(service.Call(
        R"({"op":"signals","id":"sg","params":{"job":")" + job +
        R"(","split":"test","date":1}})"));
    std::vector<double> preds;
    for (const JsonValue& p : doc.At("result").At("predictions").AsArray()) {
      preds.push_back(p.AsDouble());
    }
    return preds;
  };
  std::vector<std::vector<double>> first;
  for (const std::string& job : jobs) {
    SCOPED_TRACE(job);
    first.push_back(signals_of(job));
    EXPECT_LE(service.signals_cached(), AlphaService::kSignalsCacheCap);

    const JobResult result = service.supervisor().Status(job)->result;
    ASSERT_TRUE(result.has_alpha);
    const core::AlphaProgram pruned =
        core::PruneRedundant(result.best, core::MutatorConfig{}.limits)
            .pruned;
    core::Executor executor(service.dataset(), core::ExecutorConfig{});
    const core::ExecutionResult fresh =
        executor.Run(pruned, core::Fingerprint(pruned));
    ASSERT_TRUE(fresh.valid);
    ASSERT_EQ(first.back().size(), fresh.test_preds[1].size());
    for (size_t k = 0; k < fresh.test_preds[1].size(); ++k) {
      EXPECT_DOUBLE_EQ(first.back()[k], fresh.test_preds[1][k]);
    }
  }
  EXPECT_EQ(service.signals_cached(), AlphaService::kSignalsCacheCap);

  // The oldest jobs were evicted; serving them again recomputes the same
  // signals and still respects the cap.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(signals_of(jobs[static_cast<size_t>(i)]),
              first[static_cast<size_t>(i)]);
    EXPECT_EQ(service.signals_cached(), AlphaService::kSignalsCacheCap);
  }
}

}  // namespace
}  // namespace alphaevolve::service
