#include "service/alpha_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <utility>

#include "core/evolution.h"
#include "core/generators.h"
#include "core/pruning.h"
#include "obs/flush.h"
#include "obs/telemetry.h"
#include "scenario/scenario.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/json.h"

namespace alphaevolve::service {

namespace {

struct OpCounters {
  obs::Counter& completed;
  obs::Counter& rejected;
  obs::Counter& deadline_exceeded;
  obs::Counter& errors;
  obs::Gauge& queue_depth;
  obs::Histogram& op_micros;
  static OpCounters& Get() {
    static OpCounters counters{
        obs::MetricsRegistry::Default().GetCounter("service.ops_completed"),
        obs::MetricsRegistry::Default().GetCounter("service.ops_rejected"),
        obs::MetricsRegistry::Default().GetCounter(
            "service.ops_deadline_exceeded"),
        obs::MetricsRegistry::Default().GetCounter("service.ops_errors"),
        obs::MetricsRegistry::Default().GetGauge("service.queue_depth"),
        obs::MetricsRegistry::Default().GetHistogram("service.op_micros"),
    };
    return counters;
  }
};

/// Largest integer a JSON number (a double) carries exactly.
constexpr int64_t kMaxExactInteger = int64_t{1} << 53;
constexpr int64_t kMaxInt = std::numeric_limits<int>::max();

/// The options, once their default deadline is known to convert to a
/// steady_clock duration (the cap every request's deadline_ms obeys), their
/// default job is one submit_search would accept (a param a client leaves
/// out takes its value from it unchecked), and the op queue admits an op.
ServiceOptions CheckedOptions(ServiceOptions o) {
  AE_CHECK_MSG(o.default_deadline_ms >= 0.0 &&
                   o.default_deadline_ms <= kMaxDeadlineMs,
               "default_deadline_ms must be in [0, " << kMaxDeadlineMs
                                                     << "]");
  const JobSpec& job = o.default_job;
  AE_CHECK_MSG(job.max_candidates >= 1 &&
                   job.max_candidates <= kMaxExactInteger,
               "default_job.max_candidates must be in [1, 2^53]");
  AE_CHECK_MSG(job.population_size >= 2,
               "default_job.population_size must be at least 2");
  AE_CHECK_MSG(
      job.tournament_size >= 1 && job.tournament_size <= job.population_size,
      "default_job.tournament_size must be in [1, population_size]");
  AE_CHECK_MSG(job.batch_size >= 1, "default_job.batch_size must be >= 1");
  AE_CHECK_MSG(o.queue_capacity >= 1, "queue_capacity must be at least 1");
  return o;
}

market::MarketConfig ServiceMarketConfig(const ServiceOptions& o) {
  market::MarketConfig mc;
  mc.num_stocks = o.num_stocks;
  mc.num_days = o.num_days;
  mc.seed = o.data_seed;
  return mc;
}

/// The simulated panel, once it can hold the long-short book: one long and
/// one short name at the least. Checked on the panel, not on num_stocks,
/// because the survivor filter may drop stocks.
market::Dataset CheckedPanel(market::Dataset panel) {
  AE_CHECK_MSG(panel.num_tasks() >= 2,
               "the panel holds " << panel.num_tasks()
                                  << " stock(s); the long-short book needs "
                                     "at least 2");
  return panel;
}

/// Required string param, e.g. the job id of every per-job op.
bool ParamString(const Request& req, const char* key, std::string* out,
                 std::string* err) {
  if (!req.params.is_object() || !req.params.Contains(key) ||
      !req.params.At(key).is_string()) {
    *err = std::string("missing string param \"") + key + "\"";
    return false;
  }
  *out = req.params.At(key).AsString();
  return true;
}

/// Optional numeric param with a default. Returns false, with the reason in
/// `err`, when the value is present but not a JSON number.
bool ParamNumber(const Request& req, const char* key, double fallback,
                 double* out, std::string* err) {
  if (!req.params.is_object() || !req.params.Contains(key)) {
    *out = fallback;
    return true;
  }
  const JsonValue& value = req.params.At(key);
  if (!value.is_number()) {
    *err = std::string("param \"") + key + "\" must be a number";
    return false;
  }
  *out = value.AsDouble();
  return true;
}

/// Optional integral param in [lo, hi] with a default. Returns false, with
/// the reason in `err`, for a non-number, a non-integral value or one out of
/// range, so no client double is ever cast to an integer type unchecked
/// (1e300 or a negative seed would be undefined behaviour, 2.5 silently
/// truncated). `lo` and `hi` must be exact doubles (|bound| <= 2^53).
bool ParamInteger(const Request& req, const char* key, int64_t lo, int64_t hi,
                  int64_t fallback, int64_t* out, std::string* err) {
  if (!req.params.is_object() || !req.params.Contains(key)) {
    *out = fallback;
    return true;
  }
  const JsonValue& value = req.params.At(key);
  if (value.is_number()) {
    const double d = value.AsDouble();
    if (d >= static_cast<double>(lo) && d <= static_cast<double>(hi) &&
        d == std::trunc(d)) {
      *out = static_cast<int64_t>(d);
      return true;
    }
  }
  *err = std::string("param \"") + key + "\" must be an integer in [" +
         std::to_string(lo) + ", " + std::to_string(hi) + "]";
  return false;
}

void WriteMetricsFields(JsonWriter& w, const core::AlphaMetrics& m) {
  w.Key("valid").Value(m.valid);
  w.Key("ic_valid").Value(m.ic_valid);
  w.Key("ic_test").Value(m.ic_test);
  w.Key("sharpe_valid").Value(m.sharpe_valid);
  w.Key("sharpe_test").Value(m.sharpe_test);
  w.Key("sharpe_valid_net").Value(m.sharpe_valid_net);
  w.Key("sharpe_test_net").Value(m.sharpe_test_net);
  w.Key("mean_turnover_valid").Value(m.mean_turnover_valid);
  w.Key("mean_turnover_test").Value(m.mean_turnover_test);
}

void WriteStatusFields(JsonWriter& w, const JobStatus& s) {
  w.Key("job").Value(s.id);
  w.Key("state").Value(JobStateName(s.state));
  w.Key("attempts").Value(static_cast<int64_t>(s.attempts));
  w.Key("resumes").Value(static_cast<int64_t>(s.resumes));
  w.Key("error").Value(s.error);
  w.Key("candidates").Value(s.candidates);
  w.Key("batches_committed").Value(s.batches_committed);
  w.Key("has_result").Value(s.has_result);
  if (s.has_result) {
    w.Key("best_fitness").Value(s.result.best_fitness);
  }
}

}  // namespace

AlphaService::AlphaService(ServiceOptions options)
    : options_(CheckedOptions(std::move(options))),
      market_config_(ServiceMarketConfig(options_)),
      dataset_(CheckedPanel(market::Dataset::Simulate(
          market_config_, market::DatasetConfig{}))),
      pool_(dataset_, core::EvaluatorConfig{},
            std::max(1, options_.eval_threads)),
      supervisor_(options_.supervisor,
                  [this](const JobSpec& spec, core::CheckpointSink* sink,
                         const core::EvolutionCheckpoint* resume,
                         const std::atomic<bool>* stop) {
                    core::EvolutionConfig cfg;
                    cfg.seed = spec.seed;
                    cfg.max_candidates = spec.max_candidates;
                    cfg.population_size = spec.population_size;
                    cfg.tournament_size = spec.tournament_size;
                    cfg.batch_size = spec.batch_size;
                    core::Evolution evolution(pool_, cfg);
                    evolution.UseCheckpointSink(sink);
                    evolution.UseStopToken(stop);
                    if (resume != nullptr) evolution.ResumeFrom(*resume);
                    return evolution.Run(
                        core::MakeExpertAlpha(dataset_.window()));
                  }),
      queue_(options_.queue_capacity),
      start_(std::chrono::steady_clock::now()) {
  supervisor_.Recover();
  supervisor_.Start();
  const int n = std::max(1, options_.op_workers);
  op_workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    op_workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AlphaService::~AlphaService() { Drain(); }

void AlphaService::Drain() {
  std::lock_guard<std::mutex> lock(drain_mu_);
  if (drained_) return;
  drained_ = true;
  intake_closed_.store(true, std::memory_order_release);
  queue_.Close();  // admitted ops still drain to the workers
  for (auto& w : op_workers_) {
    if (w.joinable()) w.join();
  }
  op_workers_.clear();
  supervisor_.Drain();
  obs::FlushTelemetryArtifacts();
}

// ---------------------------------------------------------------------------
// Intake.

void AlphaService::Submit(const std::string& line,
                          std::function<void(const std::string&)> respond) {
  if (line.size() > kMaxRequestBytes) {
    respond(ErrorResponse("", kErrInvalidArgument,
                          "request line exceeds " +
                              std::to_string(kMaxRequestBytes) + " bytes"));
    return;
  }
  std::string parse_error;
  std::optional<Request> req = ParseRequest(line, &parse_error);
  if (!req.has_value()) {
    respond(ErrorResponse("", kErrBadRequest, parse_error));
    return;
  }
  if (req->deadline_ms > kMaxDeadlineMs) {
    respond(ErrorResponse(
        req->id, kErrInvalidArgument,
        "\"deadline_ms\" must be at most " +
            std::to_string(static_cast<int64_t>(kMaxDeadlineMs)) +
            " (one day)"));
    return;
  }
  // health is the readiness probe: answered inline on the intake thread so
  // it works when the queue is full and while draining.
  if (req->op == "health") {
    respond(HealthJson(req->id));
    return;
  }
  if (intake_closed_.load(std::memory_order_acquire)) {
    respond(ErrorResponse(req->id, kErrDraining, "service is draining"));
    return;
  }

  Op op;
  op.request = std::move(*req);
  op.respond = std::move(respond);
  op.enqueued = std::chrono::steady_clock::now();
  double deadline_ms = op.request.deadline_ms;
  if (deadline_ms <= 0.0) deadline_ms = options_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    op.has_deadline = true;
    op.deadline = op.enqueued + std::chrono::duration_cast<
                                    std::chrono::steady_clock::duration>(
                                    std::chrono::duration<double, std::milli>(
                                        deadline_ms));
  }

  // TryPush never blocks: admission control is an immediate structured
  // answer, whatever the workers are doing.
  auto respond_fn = op.respond;  // TryPush moves `op`
  const std::string id = op.request.id;
  switch (queue_.TryPush(std::move(op))) {
    case PushResult::kOk:
      if (obs::Enabled()) {
        OpCounters::Get().queue_depth.Set(
            static_cast<int64_t>(queue_.depth()));
      }
      break;
    case PushResult::kFull:
      if (obs::Enabled()) OpCounters::Get().rejected.Add(1);
      respond_fn(ErrorResponse(id, kErrQueueFull,
                               "op queue at capacity, retry later"));
      break;
    case PushResult::kClosed:
      respond_fn(ErrorResponse(id, kErrDraining, "service is draining"));
      break;
  }
}

std::string AlphaService::Call(const std::string& line) {
  auto done = std::make_shared<std::promise<std::string>>();
  std::future<std::string> fut = done->get_future();
  Submit(line, [done](const std::string& response) {
    done->set_value(response);
  });
  return fut.get();
}

// ---------------------------------------------------------------------------
// Op workers.

void AlphaService::WorkerLoop() {
  for (;;) {
    std::optional<Op> op = queue_.Pop();
    if (!op.has_value()) return;  // closed and drained
    if (obs::Enabled()) {
      OpCounters::Get().queue_depth.Set(static_cast<int64_t>(queue_.depth()));
    }
    // AE_FAULT=delay@<n> injects slow handling right here, before the
    // deadline check, so deadline tests are deterministic instead of racing
    // a real workload.
    fault::InjectDelay();
    if (op->has_deadline && std::chrono::steady_clock::now() > op->deadline) {
      if (obs::Enabled()) OpCounters::Get().deadline_exceeded.Add(1);
      op->respond(ErrorResponse(op->request.id, kErrDeadlineExceeded,
                                "deadline expired before execution"));
      continue;
    }
    std::string response;
    try {
      response = Dispatch(op->request);
    } catch (const std::exception& e) {
      if (obs::Enabled()) OpCounters::Get().errors.Add(1);
      response = ErrorResponse(op->request.id, kErrInternal, e.what());
    }
    op->respond(response);
    if (obs::Enabled()) {
      const auto micros =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - op->enqueued)
              .count();
      OpCounters::Get().op_micros.Record(micros);
      OpCounters::Get().completed.Add(1);
    }
  }
}

std::string AlphaService::Dispatch(const Request& req) {
  if (req.op == "submit_search") return OpSubmitSearch(req);
  if (req.op == "job_status") return OpJobStatus(req);
  if (req.op == "job_result") return OpJobResult(req);
  if (req.op == "list_jobs") return OpListJobs(req);
  if (req.op == "cancel_job") return OpCancelJob(req);
  if (req.op == "resume_job") return OpResumeJob(req);
  if (req.op == "query_alphas") return OpQueryAlphas(req);
  if (req.op == "signals") return OpSignals(req);
  if (req.op == "backtest") return OpBacktest(req);
  if (req.op == "stress") return OpStress(req);
  if (req.op == "health") return HealthJson(req.id);
  if (req.op == "metrics") {
    return OkResponseRaw(req.id, obs::MetricsRegistry::Default().ToJson());
  }
  if (req.op == "drain") {
    drain_requested_.store(true, std::memory_order_release);
    intake_closed_.store(true, std::memory_order_release);
    return OkResponse(req.id,
                      [](JsonWriter& w) { w.Key("draining").Value(true); });
  }
  return ErrorResponse(req.id, kErrBadRequest, "unknown op: " + req.op);
}

// ---------------------------------------------------------------------------
// Op catalog.

std::string AlphaService::OpSubmitSearch(const Request& req) {
  JobSpec spec = options_.default_job;
  int64_t seed = 0, max_candidates = 0, population = 0, tournament = 0,
          batch = 0;
  std::string err;
  if (!ParamInteger(req, "seed", 0, kMaxExactInteger,
                    static_cast<int64_t>(spec.seed), &seed, &err) ||
      !ParamInteger(req, "max_candidates", 1, kMaxExactInteger,
                    spec.max_candidates, &max_candidates, &err) ||
      !ParamInteger(req, "population_size", 2, kMaxInt,
                    spec.population_size, &population, &err) ||
      !ParamInteger(req, "tournament_size", 1, kMaxInt,
                    spec.tournament_size, &tournament, &err) ||
      !ParamInteger(req, "batch_size", 1, kMaxInt, spec.batch_size, &batch,
                    &err) ||
      !ParamNumber(req, "deadline_seconds", spec.deadline_seconds,
                   &spec.deadline_seconds, &err)) {
    return ErrorResponse(req.id, kErrInvalidArgument, err);
  }
  // Evolution refuses a tournament larger than the population, so such a
  // job could only fail.
  if (tournament > population) {
    return ErrorResponse(req.id, kErrInvalidArgument,
                         "param \"tournament_size\" must not exceed "
                         "population_size (" +
                             std::to_string(population) + ")");
  }
  spec.seed = static_cast<uint64_t>(seed);
  spec.max_candidates = max_candidates;
  spec.population_size = static_cast<int>(population);
  spec.tournament_size = static_cast<int>(tournament);
  spec.batch_size = static_cast<int>(batch);
  const std::string job = supervisor_.Submit(spec);
  if (job.empty() && supervisor_.draining()) {
    return ErrorResponse(req.id, kErrDraining, "supervisor is draining");
  }
  if (job.empty()) {
    return ErrorResponse(req.id, kErrQueueFull,
                         std::to_string(kMaxActiveJobs) +
                             " jobs pending or running, retry later");
  }
  return OkResponse(req.id, [&](JsonWriter& w) {
    w.Key("job").Value(job);
    w.Key("state").Value("pending");
  });
}

std::string AlphaService::OpJobStatus(const Request& req) {
  std::string job, err;
  if (!ParamString(req, "job", &job, &err)) {
    return ErrorResponse(req.id, kErrInvalidArgument, err);
  }
  std::optional<JobStatus> status = supervisor_.Status(job);
  if (!status.has_value()) {
    return ErrorResponse(req.id, kErrNotFound, "unknown job: " + job);
  }
  return OkResponse(req.id,
                    [&](JsonWriter& w) { WriteStatusFields(w, *status); });
}

std::string AlphaService::OpJobResult(const Request& req) {
  std::string job, err;
  if (!ParamString(req, "job", &job, &err)) {
    return ErrorResponse(req.id, kErrInvalidArgument, err);
  }
  std::optional<JobStatus> status = supervisor_.Status(job);
  if (!status.has_value()) {
    return ErrorResponse(req.id, kErrNotFound, "unknown job: " + job);
  }
  if (!status->has_result) {
    return ErrorResponse(req.id, kErrNotFound,
                         "job " + job + " has no result (state " +
                             JobStateName(status->state) + ")");
  }
  return OkResponseRaw(req.id, ResultJson(status->result));
}

std::string AlphaService::OpListJobs(const Request& req) {
  std::vector<JobStatus> jobs = supervisor_.List();
  return OkResponse(req.id, [&](JsonWriter& w) {
    w.Key("jobs").BeginArray();
    for (const JobStatus& s : jobs) {
      w.BeginObject();
      WriteStatusFields(w, s);
      w.EndObject();
    }
    w.EndArray();
  });
}

std::string AlphaService::OpCancelJob(const Request& req) {
  std::string job, err;
  if (!ParamString(req, "job", &job, &err)) {
    return ErrorResponse(req.id, kErrInvalidArgument, err);
  }
  if (!supervisor_.Cancel(job)) {
    return ErrorResponse(req.id, kErrNotFound,
                         "job unknown or already terminal: " + job);
  }
  return OkResponse(req.id, [&](JsonWriter& w) {
    w.Key("job").Value(job);
    w.Key("cancelled").Value(true);
  });
}

std::string AlphaService::OpResumeJob(const Request& req) {
  std::string job, err;
  if (!ParamString(req, "job", &job, &err)) {
    return ErrorResponse(req.id, kErrInvalidArgument, err);
  }
  if (!supervisor_.Resume(job)) {
    return ErrorResponse(req.id, kErrNotFound,
                         "job unknown or not resumable: " + job);
  }
  return OkResponse(req.id, [&](JsonWriter& w) {
    w.Key("job").Value(job);
    w.Key("state").Value("pending");
  });
}

std::string AlphaService::OpQueryAlphas(const Request& req) {
  std::vector<JobStatus> jobs = supervisor_.List();
  return OkResponse(req.id, [&](JsonWriter& w) {
    w.Key("alphas").BeginArray();
    for (const JobStatus& s : jobs) {
      if (s.state != JobState::kDone || !s.has_result ||
          !s.result.has_alpha) {
        continue;
      }
      w.BeginObject();
      w.Key("job").Value(s.id);
      w.Key("fitness").Value(s.result.best_fitness);
      w.Key("ic_valid").Value(s.result.metrics.ic_valid);
      w.Key("sharpe_valid").Value(s.result.metrics.sharpe_valid);
      w.Key("program").Value(s.result.best.ToString());
      w.EndObject();
    }
    w.EndArray();
  });
}

bool AlphaService::BestOf(const std::string& job_id,
                          core::AlphaProgram* pruned, uint64_t* seed,
                          std::string* error) const {
  std::optional<JobStatus> status = supervisor_.Status(job_id);
  if (!status.has_value()) {
    *error = "unknown job: " + job_id;
    return false;
  }
  if (!status->has_result || !status->result.has_alpha) {
    *error = "job " + job_id + " has no mined alpha (state " +
             JobStateName(status->state) + ")";
    return false;
  }
  // The same (pruned program, fingerprint seed) pair the search's final
  // re-evaluation used, so lookups reproduce the reported metrics exactly.
  *pruned = core::PruneRedundant(status->result.best,
                                 core::MutatorConfig{}.limits)
                .pruned;
  *seed = core::Fingerprint(*pruned);
  return true;
}

std::string AlphaService::OpSignals(const Request& req) {
  std::string job, err;
  if (!ParamString(req, "job", &job, &err)) {
    return ErrorResponse(req.id, kErrInvalidArgument, err);
  }
  std::string split = "valid";
  if (req.params.Contains("split")) {
    const JsonValue& value = req.params.At("split");
    split = value.is_string() ? value.AsString() : "";
  }
  if (split != "valid" && split != "test") {
    return ErrorResponse(req.id, kErrInvalidArgument,
                         "param \"split\" must be \"valid\" or \"test\"");
  }
  int64_t date = 0;
  if (!ParamInteger(req, "date", 0, kMaxInt, 0, &date, &err)) {
    return ErrorResponse(req.id, kErrInvalidArgument, err);
  }

  std::shared_ptr<core::ExecutionResult> exec;
  {
    std::lock_guard<std::mutex> lock(signals_mu_);
    auto it = signals_.find(job);
    if (it != signals_.end()) exec = it->second;
  }
  if (exec == nullptr) {
    core::AlphaProgram pruned;
    uint64_t seed = 0;
    std::string error;
    if (!BestOf(job, &pruned, &seed, &error)) {
      return ErrorResponse(req.id, kErrNotFound, error);
    }
    core::Executor executor(dataset_, core::ExecutorConfig{});
    exec = std::make_shared<core::ExecutionResult>(
        executor.Run(pruned, seed, /*include_test=*/true));
    std::lock_guard<std::mutex> lock(signals_mu_);
    if (signals_.emplace(job, exec).second) {
      signals_order_.push_back(job);
      if (signals_order_.size() > kSignalsCacheCap) {
        signals_.erase(signals_order_.front());
        signals_order_.pop_front();
      }
    }
  }
  const auto& preds = split == "valid" ? exec->valid_preds : exec->test_preds;
  if (date >= static_cast<int64_t>(preds.size())) {
    return ErrorResponse(
        req.id, kErrInvalidArgument,
        "date out of range: " + std::to_string(date) + " (have " +
            std::to_string(preds.size()) + " " + split + " dates)");
  }
  return OkResponse(req.id, [&](JsonWriter& w) {
    w.Key("job").Value(job);
    w.Key("split").Value(split);
    w.Key("date").Value(date);
    w.Key("predictions").BeginArray();
    for (double p : preds[static_cast<size_t>(date)]) w.Value(p);
    w.EndArray();
  });
}

std::string AlphaService::OpBacktest(const Request& req) {
  std::string job, err;
  if (!ParamString(req, "job", &job, &err)) {
    return ErrorResponse(req.id, kErrInvalidArgument, err);
  }
  core::AlphaProgram pruned;
  uint64_t seed = 0;
  std::string error;
  if (!BestOf(job, &pruned, &seed, &error)) {
    return ErrorResponse(req.id, kErrNotFound, error);
  }
  core::AlphaMetrics metrics;
  {
    core::EvaluatorPool::Lease lease(pool_);
    metrics = lease->Evaluate(pruned, seed, /*include_test=*/true);
  }
  return OkResponse(req.id, [&](JsonWriter& w) {
    w.Key("job").Value(job);
    WriteMetricsFields(w, metrics);
  });
}

std::string AlphaService::OpStress(const Request& req) {
  std::string job, err;
  int64_t limit = 0;  // 0: every scenario of the standard suite
  if (!ParamString(req, "job", &job, &err) ||
      !ParamInteger(req, "scenarios", 0, kMaxInt, 0, &limit, &err)) {
    return ErrorResponse(req.id, kErrInvalidArgument, err);
  }
  core::AlphaProgram pruned;
  uint64_t seed = 0;
  std::string error;
  if (!BestOf(job, &pruned, &seed, &error)) {
    return ErrorResponse(req.id, kErrNotFound, error);
  }
  scenario::ScenarioSuite suite =
      scenario::ScenarioSuite::Standard(market_config_, options_.data_seed);
  if (limit > 0 && limit < suite.num_scenarios()) {
    suite.Truncate(static_cast<int>(limit));
  }
  return OkResponse(req.id, [&](JsonWriter& w) {
    w.Key("job").Value(job);
    w.Key("scenarios").BeginArray();
    for (int i = 0; i < suite.num_scenarios(); ++i) {
      market::Dataset panel =
          suite.Materialize(i, market::DatasetConfig{});
      core::Evaluator evaluator(panel, pool_.config());
      const core::AlphaMetrics m = evaluator.Evaluate(
          pruned, scenario::RegimeSeed(seed, i, suite.spec(i)),
          /*include_test=*/true);
      w.BeginObject();
      w.Key("scenario").Value(suite.spec(i).id);
      WriteMetricsFields(w, m);
      w.EndObject();
    }
    w.EndArray();
  });
}

std::string AlphaService::HealthJson(const std::string& id) const {
  const bool draining = intake_closed_.load(std::memory_order_acquire);
  const auto counts = supervisor_.StateCounts();
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  return OkResponse(id, [&](JsonWriter& w) {
    w.Key("status").Value(draining ? "draining" : "ok");
    w.Key("ready").Value(!draining);
    w.Key("uptime_seconds").Value(uptime);
    w.Key("queue_depth").Value(static_cast<int64_t>(queue_.depth()));
    w.Key("queue_capacity").Value(static_cast<int64_t>(queue_.capacity()));
    w.Key("jobs").BeginObject();
    for (size_t s = 0; s < kNumJobStates; ++s) {
      w.Key(JobStateName(static_cast<JobState>(s)))
          .Value(static_cast<uint64_t>(counts[s]));
    }
    w.EndObject();
  });
}

std::string AlphaService::ResultJson(const JobResult& result) {
  // Field set and order are frozen: this string is byte-compared between an
  // uninterrupted run and a crash/resume chain. Wall-clock never appears.
  JsonWriter w;
  w.BeginObject();
  w.Key("has_alpha").Value(result.has_alpha);
  w.Key("best_fitness").Value(result.best_fitness);
  w.Key("program").Value(result.best.ToString());
  w.Key("metrics").BeginObject();
  WriteMetricsFields(w, result.metrics);
  w.EndObject();
  w.Key("stats").BeginObject();
  w.Key("candidates").Value(result.stats.candidates);
  w.Key("evaluated").Value(result.stats.evaluated);
  w.Key("pruned_redundant").Value(result.stats.pruned_redundant);
  w.Key("cache_hits").Value(result.stats.cache_hits);
  w.Key("cutoff_discarded").Value(result.stats.cutoff_discarded);
  w.Key("eval_timeouts").Value(result.stats.eval_timeouts);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

}  // namespace alphaevolve::service
