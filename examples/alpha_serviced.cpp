// Resident alpha service daemon: owns one simulated panel + evaluator pool
// for its whole lifetime and serves supervised, crash-recovering search jobs
// over a line-delimited JSON protocol on stdin/stdout (one request per line,
// one response per line; responses may interleave across requests — match
// them by the echoed "id").
//
//   echo '{"op":"health","id":"h1"}' | ./build/alpha_serviced
//
// Op catalog: submit_search, job_status, job_result, list_jobs, cancel_job,
// resume_job, query_alphas, signals, backtest, stress, health, metrics,
// drain (see src/service/alpha_service.h). EOF on stdin is an implicit
// drain: intake stops, admitted ops finish, running jobs checkpoint and
// park, telemetry flushes, then the process exits 0.
//
// Crash recovery: with --checkpoint-dir each job keeps its own directory,
// DIR/<id>/, holding its record (job) and its snapshot stream, and the
// daemon reads every record at boot: finished jobs serve the result their
// record holds; jobs that were running (or pending) when the previous
// process died are requeued and auto-resume from their newest checkpoint,
// finishing bit-identical to an uninterrupted run (candidate-bounded specs;
// wall-clock excluded). Failed and cancelled jobs stay parked until
// resume_job: no job retries itself.
//
// Flags (all --key=value):
//   --checkpoint-dir=DIR      durable root (default: in-memory only)
//   --stocks=N --days=N       panel shape (default 24 x 220)
//   --data-seed=N             panel seed (default 13)
//   --eval-threads=N          evaluator pool workers (default 2)
//   --op-workers=N            op worker threads (default 2)
//   --queue-capacity=N        bounded op queue (default 64)
//   --default-deadline-ms=F   deadline for ops that carry none (default 0,
//                             at most 86400000: one day)
//   --job-workers=N           concurrent searches (default 1)
//   --checkpoint-every=N --checkpoint-keep=K    snapshot cadence/retention
//   --max-candidates=N        default per-job candidate budget (default 240)
//
// Telemetry (see telemetry_flags.h): --telemetry, --metrics-out=PATH,
// --trace-out=PATH, --progress-every=SECS. Artifacts flush on drain and on
// abnormal exit (crash flush); progress lines go to stderr, never stdout.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>

#include "service/alpha_service.h"
#include "telemetry_flags.h"

namespace {

using alphaevolve::service::AlphaService;
using alphaevolve::service::kMaxDeadlineMs;
using alphaevolve::service::ReadRequestLine;
using alphaevolve::service::ServiceOptions;

const char* ValueOf(const char* arg, const char* prefix) {
  const size_t n = std::strlen(prefix);
  return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  auto telemetry = alphaevolve::examples::StripTelemetryFlags(argc, argv);
  ServiceOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = ValueOf(arg, "--checkpoint-dir=")) {
      options.supervisor.checkpoint_dir = v;
    } else if (const char* v = ValueOf(arg, "--stocks=")) {
      options.num_stocks = std::atoi(v);
    } else if (const char* v = ValueOf(arg, "--days=")) {
      options.num_days = std::atoi(v);
    } else if (const char* v = ValueOf(arg, "--data-seed=")) {
      options.data_seed = static_cast<uint64_t>(std::atoll(v));
    } else if (const char* v = ValueOf(arg, "--eval-threads=")) {
      options.eval_threads = std::atoi(v);
    } else if (const char* v = ValueOf(arg, "--op-workers=")) {
      options.op_workers = std::atoi(v);
    } else if (const char* v = ValueOf(arg, "--queue-capacity=")) {
      options.queue_capacity = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = ValueOf(arg, "--default-deadline-ms=")) {
      options.default_deadline_ms = std::atof(v);
      if (!(options.default_deadline_ms >= 0.0 &&
            options.default_deadline_ms <= kMaxDeadlineMs)) {
        std::fprintf(stderr, "out-of-range flag (want 0 to %.0f): %s\n",
                     kMaxDeadlineMs, arg);
        return 2;
      }
    } else if (const char* v = ValueOf(arg, "--job-workers=")) {
      options.supervisor.worker_threads = std::atoi(v);
    } else if (const char* v = ValueOf(arg, "--checkpoint-every=")) {
      options.supervisor.checkpoint_every_batches = std::atoi(v);
    } else if (const char* v = ValueOf(arg, "--checkpoint-keep=")) {
      options.supervisor.checkpoint_keep = std::atoi(v);
    } else if (const char* v = ValueOf(arg, "--max-candidates=")) {
      options.default_job.max_candidates = std::atoll(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }

  auto reporter = alphaevolve::examples::StartTelemetry(telemetry);
  AlphaService service(options);
  std::fprintf(stderr, "[alpha_serviced] serving on stdio (panel %dx%d, %s)\n",
               options.num_stocks, options.num_days,
               options.supervisor.checkpoint_dir.empty()
                   ? "in-memory"
                   : options.supervisor.checkpoint_dir.c_str());

  // Reader loop: stdin lines in (each buffered up to the request cap; see
  // ReadRequestLine), stdout lines out. Responses arrive from op workers, so
  // writes go through one mutex and flush per line (a consumer must never
  // wait on a response stuck in a buffer).
  std::mutex out_mu;
  auto respond = [&out_mu](const std::string& response) {
    std::lock_guard<std::mutex> lock(out_mu);
    std::fputs(response.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  };
  std::string line;
  while (!service.drain_requested() && ReadRequestLine(std::cin, &line)) {
    if (line.empty()) continue;
    service.Submit(line, respond);
  }

  if (reporter != nullptr) reporter->Stop();
  service.Drain();  // graceful: finish admitted ops, checkpoint + park jobs
  std::fprintf(stderr, "[alpha_serviced] drained, exiting\n");
  return 0;
}
