// End-to-end benchmark driver: runs one fixed-work workload in-process
// through the library's public API and prints one JSON object of raw
// samples (setup repeats, per-unit wall/CPU/work counters/result digest,
// latency samples, per-layer values) on stdout. e2ebench/run.py turns the
// samples into metrics and checks the work against reference.json.
//
//   e2e --workload mine_ci --variant 0 --seconds 20 --trace 0
//       --threads 4 --pipeline 1 --workdir .bench_build/work
//
// A "unit" is the workload's fixed work (2 rounds x 2 concurrent searches
// for mine_*, a batch of service jobs plus their reads for service_mixed).
// The timed phase repeats units until --seconds is used up, after an
// untimed warm-up. With --trace 1 half of the phase runs with the library's
// telemetry on, behind forwarding scorer/sink wrappers, and a sample of the
// scored (program, seed) pairs is replayed layer by layer afterwards.

#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/dispatch.h"
#include "core/evaluator_pool.h"
#include "core/evolution.h"
#include "core/executor.h"
#include "core/generators.h"
#include "core/mining.h"
#include "eval/metrics.h"
#include "eval/portfolio.h"
#include "market/dataset.h"
#include "obs/telemetry.h"
#include "scenario/panel_overlay.h"
#include "scenario/scenario.h"
#include "scenario/scenario_fitness.h"
#include "service/alpha_service.h"
#include "util/json.h"

namespace {

namespace ae = alphaevolve;
namespace core = alphaevolve::core;
namespace market = alphaevolve::market;
namespace scenario = alphaevolve::scenario;
namespace ckpt = alphaevolve::ckpt;
namespace obs = alphaevolve::obs;
namespace service = alphaevolve::service;
namespace fs = std::filesystem;

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

constexpr double kMiB = 1024.0 * 1024.0;

// ------------------------------------------------------------------ options

struct Args {
  std::string workload;
  int variant = 0;
  double seconds = 10.0;
  bool trace = false;
  int threads = 4;
  int pipeline = 1;
  std::string workdir = ".bench_build/work";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--variant") a.variant = std::stoi(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = std::stoi(val) != 0;
    else if (key == "--threads") a.threads = std::max(1, std::stoi(val));
    else if (key == "--pipeline") a.pipeline = std::max(0, std::stoi(val));
    else if (key == "--workdir") a.workdir = val;
    else throw std::invalid_argument("unknown flag " + key);
  }
  return a;
}

/// Fixed shape of one mining workload.
struct MineShape {
  int stocks;
  int days;
  bool paper_split;      ///< the paper's 81/9.5/9.5 split (else 65/20/15)
  bool relation_break;   ///< the bench calibration's late sector rotation
  int64_t max_candidates;  ///< per search
  int setup_repeats;
  int replay_samples;
};

MineShape ShapeOf(const std::string& workload) {
  if (workload == "mine_ci") return {200, 500, false, true, 1000, 5, 100};
  if (workload == "mine_paper") return {1140, 1260, true, true, 16, 3, 6};
  if (workload == "mine_stress_ckpt") {
    // PanelOverlay replays one unbroken draw history, so the base market of
    // the stress workload carries no relation break.
    return {200, 500, false, false, 300, 5, 100};
  }
  throw std::invalid_argument("unknown workload " + workload);
}

/// The bench calibration of bench/common.cc MakeBenchDataset.
market::MarketConfig MarketOf(const MineShape& s) {
  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = s.stocks;
  mc.num_days = s.days;
  mc.seed = 17;
  mc.mean_reversion_strength = 0.03;
  mc.momentum_strength = 0.05;
  mc.relation_break_fraction = s.relation_break ? 0.6 : 0.0;
  return mc;
}

market::DatasetConfig SplitOf(const MineShape& s) {
  market::DatasetConfig dc;
  if (!s.paper_split) {
    dc.train_fraction = 0.65;
    dc.valid_fraction = 0.20;
  }
  return dc;
}

/// Search seed of (round, search) under input variant `variant`; the warm-up
/// uses variant -1, which no timed unit ever draws.
uint64_t SearchSeed(int variant, int round, int search) {
  return static_cast<uint64_t>(variant + 2) * 7919u +
         static_cast<uint64_t>(round) * 31u + static_cast<uint64_t>(search);
}

// ------------------------------------------------------------- result digest

/// FNV-1a 64 over the canonical bytes of a unit's results.
class Digest {
 public:
  void Add(std::string_view bytes) {
    for (unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
    Add64(bytes.size());
  }
  void Add64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void AddDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add64(bits);
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

void DigestMetrics(Digest& d, const core::AlphaMetrics& m) {
  d.Add64(m.valid ? 1 : 0);
  d.AddDouble(m.ic_valid);
  d.AddDouble(m.ic_test);
  d.AddDouble(m.sharpe_valid);
  d.AddDouble(m.sharpe_test);
  d.AddDouble(m.mean_turnover_valid);
  d.AddDouble(m.mean_turnover_test);
  for (double r : m.valid_portfolio_returns) d.AddDouble(r);
}

// ------------------------------------------------------------ run recording

/// Everything one unit produced.
struct Unit {
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t ops = 0;
  int64_t failed_ops = 0;
  std::map<std::string, int64_t> counters;  ///< pinned work counters
  std::string digest;
  std::map<std::string, double> layers;     ///< per-layer values (traced)
};

/// Named latency samples, filled from several threads.
class Samples {
 public:
  void Add(const std::string& name, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    values_[name].push_back(v);
  }
  std::map<std::string, std::vector<double>> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(values_);
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<double>> values_;
};

double SpanMs(const char* span) {
  return static_cast<double>(obs::MetricsRegistry::Default()
                                 .GetHistogram(std::string("span.") + span)
                                 .Sum()) /
         1e6;
}

double SpanQuantileMs(const char* span, double q) {
  return obs::MetricsRegistry::Default()
             .GetHistogram(std::string("span.") + span)
             .Quantile(q) /
         1e6;
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name).Value();
}

void SetTelemetry(bool on) {
  obs::TelemetryConfig config;
  config.enabled = on;
  obs::Configure(config);
  obs::MetricsRegistry::Default().Reset();
}

/// Driver, pruning/cache, pool and checkpoint-capture layers of a traced
/// unit, from the span histograms and counters the library already emits.
void AddSearchLayers(Unit& u) {
  const double cands =
      static_cast<double>(std::max<int64_t>(1, u.counters["candidates"]));
  u.layers["evolution.generate_ms"] = SpanMs("evolution.generate");
  u.layers["evolution.fingerprint_ms"] = SpanMs("evolution.fingerprint");
  u.layers["evolution.commit_ms"] = SpanMs("evolution.commit");
  u.layers["evolution.commit_wait_ms"] = SpanMs("evolution.commit_wait");
  u.layers["evolution.tournament_wait_ms"] =
      SpanMs("evolution.tournament_wait");
  u.layers["prune.us_per_cand"] =
      1e3 * u.layers["evolution.fingerprint_ms"] / cands;
  u.layers["prune.redundant_frac"] =
      static_cast<double>(u.counters["pruned"]) / cands;
  u.layers["cache.hit_frac"] =
      static_cast<double>(u.counters["cache_hits"]) / cands;
  u.layers["pool.lease_wait_ms"] = SpanMs("pool.lease_acquire");
  u.layers["threadpool.tasks_helped"] =
      static_cast<double>(CounterValue("threadpool.tasks_helped"));
  u.layers["ckpt.capture_ms"] = SpanMs("checkpoint.capture");
}

// --------------------------------------------------------- traced wrappers

/// One scored (program, seed) pair kept for the layer-by-layer replay, with
/// the baseline metrics the search computed for it.
struct ScoredSample {
  core::AlphaProgram program;
  uint64_t seed = 0;
  core::AlphaMetrics metrics;
};

/// Forwarding CandidateScorer. Without an inner scorer it performs exactly
/// Evolution's built-in scoring (baseline Evaluate + correlation cutoff, no
/// regime count), so installing it changes no result; with one (the
/// ScenarioFitness) it forwards. Either way it times each call and keeps the
/// first `keep` pairs for the replay.
class TimingScorer : public core::CandidateScorer {
 public:
  TimingScorer(core::CandidateScorer* inner, Samples* samples,
               const char* sample_name, size_t keep)
      : inner_(inner), samples_(samples), sample_name_(sample_name),
        keep_(keep) {}

  core::ScoreOutcome Score(
      core::Evaluator& evaluator, const core::AlphaProgram& program,
      uint64_t seed,
      const std::vector<std::vector<double>>& accepted_valid_returns,
      double correlation_cutoff) override {
    const auto t0 = Clock::now();
    core::ScoreOutcome out;
    if (inner_ != nullptr) {
      out = inner_->Score(evaluator, program, seed, accepted_valid_returns,
                          correlation_cutoff);
    } else {
      out.baseline = evaluator.Evaluate(program, seed, /*include_test=*/false);
      out.fitness =
          out.baseline.valid ? out.baseline.ic_valid : core::kInvalidFitness;
      if (out.baseline.valid) {
        for (const auto& accepted : accepted_valid_returns) {
          const double corr = ae::eval::PortfolioCorrelation(
              out.baseline.valid_portfolio_returns, accepted);
          if (std::abs(corr) > correlation_cutoff) {
            out.cutoff_discarded = true;
            out.fitness = core::kInvalidFitness;
            break;
          }
        }
      }
    }
    samples_->Add(sample_name_, 1e3 * Since(t0));
    std::lock_guard<std::mutex> lock(mu_);
    if (kept_.size() < keep_) kept_.push_back({program, seed, out.baseline});
    return out;
  }

  std::vector<ScoredSample> TakeKept() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(kept_);
  }

 private:
  core::CandidateScorer* inner_;
  Samples* samples_;
  const char* sample_name_;
  size_t keep_;
  std::mutex mu_;
  std::vector<ScoredSample> kept_;
};

/// Forwarding CheckpointSink: times the barrier side of each snapshot
/// hand-off (capture happens in the driver; this is the sink's share).
class TimingSink : public core::CheckpointSink {
 public:
  explicit TimingSink(core::CheckpointSink* inner) : inner_(inner) {}
  bool WantCheckpoint(int64_t batches_committed) override {
    return inner_->WantCheckpoint(batches_committed);
  }
  void WriteCheckpoint(const core::EvolutionCheckpoint& checkpoint) override {
    const auto t0 = Clock::now();
    inner_->WriteCheckpoint(checkpoint);
    write_s_ += Since(t0);
  }
  double write_s() const { return write_s_; }

 private:
  core::CheckpointSink* inner_;
  double write_s_ = 0.0;  ///< driving thread only
};

// -------------------------------------------------------- mining workloads

/// What set-up builds for a mining workload and the timed units reuse.
struct MineEnv {
  std::optional<market::Dataset> dataset;              // mine_ci, mine_paper
  std::unique_ptr<scenario::ScenarioFitness> fitness;  // mine_stress_ckpt
  std::unique_ptr<core::EvaluatorPool> pool;

  const market::Dataset& panel() const {
    return fitness != nullptr ? fitness->baseline_panel() : *dataset;
  }
};

void BuildMineEnv(const std::string& workload, const MineShape& shape,
                  int threads, MineEnv& env) {
  env.pool.reset();
  env.fitness.reset();
  env.dataset.reset();
  const market::MarketConfig mc = MarketOf(shape);
  if (workload == "mine_stress_ckpt") {
    env.fitness = std::make_unique<scenario::ScenarioFitness>(
        scenario::ScenarioSuite::Standard(mc, 77), SplitOf(shape),
        core::EvaluatorConfig{}, core::ScenarioFitnessOptions{});
  } else {
    env.dataset.emplace(market::Dataset::Simulate(mc, SplitOf(shape)));
  }
  env.pool = std::make_unique<core::EvaluatorPool>(
      env.panel(), core::EvaluatorConfig{}, threads);
  if (env.fitness != nullptr) {
    env.fitness->set_fanout_pool(env.pool->thread_pool());
  }
  // First-lease warm-up: the evaluator (and its executors' scratch) is
  // created lazily on the first lease.
  core::EvaluatorPool::Lease lease(*env.pool);
  lease->Evaluate(core::MakeExpertAlpha(env.panel().window()), 1,
                  /*include_test=*/false);
}

struct MineOptions {
  int variant = 0;
  int64_t max_candidates = 0;
  int rounds = 2;
  int threads = 4;
  int pipeline = 1;
  bool checkpoint = false;
  std::string ckpt_dir;
  TimingScorer* timing_scorer = nullptr;  ///< traced units only
};

Unit RunMiningUnit(MineEnv& env, const MineOptions& o) {
  Unit u;
  core::EvolutionConfig cfg;
  cfg.population_size = 100;
  cfg.tournament_size = 10;
  cfg.max_candidates = o.max_candidates;
  cfg.batch_size = 16;  // pinned: the auto width depends on the core count
  cfg.num_threads = o.threads;
  cfg.pipeline_depth = o.pipeline;
  cfg.share_round_cache = false;  // shared hits depend on scheduling
  core::WeaklyCorrelatedMiner miner(*env.pool, cfg);
  if (o.timing_scorer != nullptr) {
    miner.UseCandidateScorer(o.timing_scorer);
  } else if (env.fitness != nullptr) {
    miner.UseCandidateScorer(env.fitness.get());
  }
  const core::AlphaProgram init = core::MakeExpertAlpha(env.panel().window());

  core::EvolutionStats totals;
  Digest digest;
  std::vector<double> round_s, skew;
  double ckpt_write_s = 0.0, ckpt_publish_s = 0.0;
  int64_t generations = 0;
  double snapshot_kb = 0.0;
  const auto t0 = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  for (int r = 0; r < o.rounds; ++r) {
    std::vector<std::unique_ptr<ckpt::CheckpointWriter>> writers;
    std::vector<std::unique_ptr<TimingSink>> sinks;
    std::vector<core::WeaklyCorrelatedMiner::SearchSpec> specs;
    for (int s = 0; s < 2; ++s) {
      core::WeaklyCorrelatedMiner::SearchSpec spec;
      spec.init = init;
      spec.seed = SearchSeed(o.variant, r, s);
      if (o.checkpoint) {
        ckpt::WriterOptions wo;
        wo.every_batches = 4;
        wo.keep = 3;
        wo.background = true;
        writers.push_back(std::make_unique<ckpt::CheckpointWriter>(
            o.ckpt_dir, "r" + std::to_string(r) + "s" + std::to_string(s),
            wo));
        spec.checkpoint_sink = writers.back().get();
        if (o.timing_scorer != nullptr) {
          sinks.push_back(std::make_unique<TimingSink>(writers.back().get()));
          spec.checkpoint_sink = sinks.back().get();
        }
      }
      specs.push_back(spec);
    }
    const auto r0 = Clock::now();
    std::vector<core::EvolutionResult> results = miner.RunSearches(specs);
    for (auto& w : writers) w->Flush();
    round_s.push_back(Since(r0));

    double lo = 1e300, hi = 0.0;
    int best = -1;
    for (size_t s = 0; s < results.size(); ++s) {
      const core::EvolutionResult& res = results[s];
      totals.Merge(res.stats);
      lo = std::min(lo, res.stats.elapsed_seconds);
      hi = std::max(hi, res.stats.elapsed_seconds);
      digest.Add64(res.has_alpha ? 1 : 0);
      digest.Add(res.best.ToString());
      digest.AddDouble(res.best_fitness);
      DigestMetrics(digest, res.best_metrics);
      if (res.has_alpha &&
          (best < 0 || res.best_metrics.sharpe_valid >
                           results[static_cast<size_t>(best)]
                               .best_metrics.sharpe_valid)) {
        best = static_cast<int>(s);
      }
    }
    skew.push_back(lo > 0.0 ? hi / lo : 1.0);
    if (best >= 0) {
      const core::EvolutionResult& res = results[static_cast<size_t>(best)];
      miner.Accept("r" + std::to_string(r), res.best, res.best_metrics);
      digest.Add64(static_cast<uint64_t>(best));
    }
    for (auto& sink : sinks) ckpt_write_s += sink->write_s();
    for (auto& w : writers) {
      generations += w->generations_written();
      ckpt_publish_s += w->total_write_seconds();
      snapshot_kb = static_cast<double>(w->last_snapshot_bytes()) / 1024.0;
      ckpt::RemoveCheckpoints(w->dir(), w->stem());
    }
  }
  u.wall_s = Since(t0);
  u.cpu_s = ProcessCpuSeconds() - cpu0;
  u.ops = 2 * o.rounds;
  u.counters = {{"candidates", totals.candidates},
                {"evaluated", totals.evaluated},
                {"pruned", totals.pruned_redundant},
                {"cache_hits", totals.cache_hits},
                {"cutoff", totals.cutoff_discarded},
                {"screened", totals.screened_out},
                {"regime_evals", totals.scenario_evals}};
  u.digest = digest.Hex();

  std::sort(round_s.begin(), round_s.end());
  std::sort(skew.begin(), skew.end());
  u.layers["mining.round_s"] = round_s[round_s.size() / 2];
  u.layers["mining.search_skew"] = skew[skew.size() / 2];
  u.layers["pool.busy_frac"] =
      u.cpu_s / (static_cast<double>(o.threads) * u.wall_s);
  if (o.checkpoint) {
    u.layers["ckpt.write_ms"] = 1e3 * ckpt_write_s;
    u.layers["ckpt.publish_ms"] = 1e3 * ckpt_publish_s;
    u.layers["ckpt.snapshot_kb"] = snapshot_kb;
    u.layers["ckpt.generations"] = static_cast<double>(generations);
  }
  if (o.timing_scorer != nullptr) {
    AddSearchLayers(u);
    if (env.fitness != nullptr) {
      const double evals =
          static_cast<double>(std::max<int64_t>(1, totals.evaluated));
      u.layers["scenario.regimes_per_eval"] =
          static_cast<double>(totals.scenario_evals) / evals;
      u.layers["scenario.screen_reject_frac"] =
          static_cast<double>(totals.screened_out) / evals;
      u.layers["evaluate.ms_p50"] = SpanQuantileMs("scenario.regime_eval", 0.5);
      u.layers["evaluate.ms_p99"] =
          SpanQuantileMs("scenario.regime_eval", 0.99);
    }
  }
  return u;
}

/// Replays scored pairs through the executor and the metric functions one
/// layer at a time; every replayed result must equal the search's own
/// Evaluate bit for bit.
void Replay(const market::Dataset& panel, const core::EvaluatorConfig& config,
            const std::vector<ScoredSample>& kept, Samples& samples,
            std::map<std::string, double>& layers) {
  core::Executor executor(panel, config.executor);
  const auto& valid_dates = panel.dates(market::Split::kValid);
  const double task_dates =
      static_cast<double>(panel.num_tasks()) *
      static_cast<double>(panel.dates(market::Split::kTrain).size() +
                          valid_dates.size());
  int64_t mismatches = 0, replayed = 0;
  const std::vector<double>* previous_returns = nullptr;
  for (const ScoredSample& s : kept) {
    auto t0 = Clock::now();
    core::ExecutionResult r = executor.Run(s.program, s.seed, false);
    const double run_ms = 1e3 * Since(t0);
    samples.Add("executor_run_ms", run_ms);
    samples.Add("executor_ns_per_task_date", 1e6 * run_ms / task_dates);
    ++replayed;
    if (r.valid != s.metrics.valid) {
      ++mismatches;
      continue;
    }
    if (!r.valid) continue;
    t0 = Clock::now();
    const double ic =
        ae::eval::InformationCoefficient(panel, valid_dates, r.valid_preds);
    samples.Add("eval_ic_ms", 1e3 * Since(t0));
    t0 = Clock::now();
    ae::eval::Backtest bt = ae::eval::RunBacktest(
        panel, valid_dates, r.valid_preds, config.portfolio, config.costs);
    samples.Add("eval_backtest_ms", 1e3 * Since(t0));
    t0 = Clock::now();
    const double sharpe = ae::eval::SharpeRatio(bt.gross);
    samples.Add("eval_sharpe_us", 1e6 * Since(t0));
    if (previous_returns != nullptr) {
      t0 = Clock::now();
      ae::eval::PortfolioCorrelation(bt.gross, *previous_returns);
      samples.Add("eval_cutoff_us", 1e6 * Since(t0));
    }
    previous_returns = &s.metrics.valid_portfolio_returns;
    if (std::memcmp(&ic, &s.metrics.ic_valid, sizeof(ic)) != 0 ||
        std::memcmp(&sharpe, &s.metrics.sharpe_valid, sizeof(sharpe)) != 0 ||
        bt.gross.size() != s.metrics.valid_portfolio_returns.size() ||
        (!bt.gross.empty() &&
         std::memcmp(bt.gross.data(), s.metrics.valid_portfolio_returns.data(),
                     bt.gross.size() * sizeof(double)) != 0)) {
      ++mismatches;
    }
  }
  layers["replay.samples"] = static_cast<double>(replayed);
  layers["replay.mismatches"] = static_cast<double>(mismatches);
}

// ------------------------------------------------------- service workload

constexpr int kJobsPerUnit = 20;
constexpr int64_t kJobCandidates = 240;
constexpr int kOutstandingJobs = 2;
constexpr auto kStatusPollInterval = std::chrono::milliseconds(2);
/// Threads that evaluate: the pool's 2 workers plus the 2 supervisor workers,
/// which take part in their own searches' batches.
constexpr double kServiceThreads = 4.0;

std::unique_ptr<service::AlphaService> BuildService(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  service::ServiceOptions so;
  so.num_stocks = 100;
  so.num_days = 400;
  so.eval_threads = 2;
  so.op_workers = 2;
  so.supervisor.checkpoint_dir = dir;
  so.supervisor.worker_threads = 2;
  auto svc = std::make_unique<service::AlphaService>(so);
  svc->Call(R"({"op":"list_jobs","id":"warm"})");  // first op round trip
  return svc;
}

/// A parsed response: ok flag plus the result object.
struct Reply {
  bool ok = false;
  ae::JsonValue result;
};

Reply Parse(const std::string& line) {
  Reply r;
  ae::JsonValue v = ae::JsonValue::Parse(line);
  r.ok = v.is_object() && v.Contains("ok") && v.At("ok").AsBool();
  if (r.ok && v.Contains("result")) r.result = v.At("result");
  return r;
}

/// Runs kJobsPerUnit candidate-bounded jobs through the service in a closed
/// loop: a job client keeps kOutstandingJobs jobs in flight and polls their
/// status at a fixed interval; a read client runs the read script on each
/// job as it finishes, while later jobs keep running and checkpointing.
Unit RunServiceUnit(service::AlphaService& svc, int variant, int jobs,
                    Samples& samples) {
  Unit u;
  std::vector<std::string> job_ids(static_cast<size_t>(jobs));
  std::vector<std::string> results(static_cast<size_t>(jobs));
  std::atomic<int64_t> ops{0}, failed{0};
  auto call = [&](const std::string& line, Reply* reply) {
    const std::string response = svc.Call(line);
    ops.fetch_add(1);
    *reply = Parse(response);
    if (!reply->ok) failed.fetch_add(1);
    return response;
  };

  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> finished;  // job indices ready for the read client
  bool jobs_over = false;

  const auto t0 = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  std::thread reader([&] {
    for (;;) {
      int j = -1;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !finished.empty() || jobs_over; });
        if (finished.empty()) return;
        j = finished.front();
        finished.pop_front();
      }
      const std::string& id = job_ids[static_cast<size_t>(j)];
      const std::string params = R"(,"params":{"job":")" + id + "\"";
      Reply reply;
      auto t = Clock::now();
      results[static_cast<size_t>(j)] =
          call(R"({"op":"job_result","id":"res")" + params + "}}", &reply);
      samples.Add("result_ms", 1e3 * Since(t));
      t = Clock::now();
      call(R"({"op":"backtest","id":"bt")" + params + "}}", &reply);
      samples.Add("backtest_ms", 1e3 * Since(t));
      for (int d = 0; d < 4; ++d) {
        t = Clock::now();
        call(R"({"op":"signals","id":"sig")" + params + R"(,"date":)" +
                 std::to_string(d) + "}}",
             &reply);
        samples.Add(d == 0 ? "signals_first_ms" : "signals_cached_us",
                    (d == 0 ? 1e3 : 1e6) * Since(t));
      }
      t = Clock::now();
      call(R"({"op":"stress","id":"st")" + params + R"(,"scenarios":3}})",
           &reply);
      samples.Add("stress_ms", 1e3 * Since(t));
    }
  });

  struct Outstanding {
    int index;
    Clock::time_point submitted;
  };
  std::vector<Outstanding> outstanding;
  int next = 0, done = 0;
  while (done < jobs) {
    while (static_cast<int>(outstanding.size()) < kOutstandingJobs &&
           next < jobs) {
      Reply reply;
      const uint64_t seed = SearchSeed(variant, 0, next);
      const auto submitted = Clock::now();
      call(R"({"op":"submit_search","id":"sub","params":{"seed":)" +
               std::to_string(seed) + R"(,"max_candidates":)" +
               std::to_string(kJobCandidates) +
               R"(,"population_size":20,"tournament_size":5,"batch_size":8}})",
           &reply);
      if (!reply.ok) {
        ++done;
        ++next;
        continue;
      }
      job_ids[static_cast<size_t>(next)] = reply.result.At("job").AsString();
      outstanding.push_back({next++, submitted});
    }
    std::this_thread::sleep_for(kStatusPollInterval);
    for (size_t k = 0; k < outstanding.size();) {
      const Outstanding o = outstanding[k];
      Reply reply;
      const auto t = Clock::now();
      call(R"({"op":"job_status","id":"stat","params":{"job":")" +
               job_ids[static_cast<size_t>(o.index)] + "\"}}",
           &reply);
      samples.Add("status_us", 1e6 * Since(t));
      const std::string state =
          reply.ok ? reply.result.At("state").AsString() : "error";
      if (state == "pending" || state == "running") {
        ++k;
        continue;
      }
      if (state == "done") {
        samples.Add("job_ms",
                    1e3 * std::chrono::duration<double>(Clock::now() -
                                                        o.submitted)
                              .count());
        std::lock_guard<std::mutex> lock(mu);
        finished.push_back(o.index);
        cv.notify_one();
      } else {
        failed.fetch_add(1);
      }
      ++done;
      outstanding.erase(outstanding.begin() + static_cast<long>(k));
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    jobs_over = true;
    cv.notify_one();
  }
  reader.join();
  u.wall_s = Since(t0);
  u.cpu_s = ProcessCpuSeconds() - cpu0;

  core::EvolutionStats totals;
  int64_t retried = 0;
  Digest digest;
  for (int j = 0; j < jobs; ++j) {
    digest.Add(results[static_cast<size_t>(j)]);
    std::optional<service::JobStatus> st =
        svc.supervisor().Status(job_ids[static_cast<size_t>(j)]);
    if (st.has_value() && st->has_result) {
      totals.Merge(st->result.stats);
      retried += std::max(0, st->attempts - 1);
    }
  }
  u.ops = ops.load();
  u.failed_ops = failed.load();
  u.counters = {{"jobs", jobs},
                {"candidates", totals.candidates},
                {"evaluated", totals.evaluated},
                {"pruned", totals.pruned_redundant},
                {"cache_hits", totals.cache_hits},
                {"cutoff", totals.cutoff_discarded}};
  u.digest = digest.Hex();
  u.layers["service.jobs_retried"] = static_cast<double>(retried);
  u.layers["pool.busy_frac"] = u.cpu_s / (kServiceThreads * u.wall_s);
  return u;
}

// ------------------------------------------------------------ machine stamp

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0 || line.rfind("Model", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// (steal, total) jiffies of the aggregate "cpu" line of /proc/stat.
std::pair<int64_t, int64_t> StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  int64_t total = 0, steal = 0, v = 0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

std::string FsType(const std::string& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794c7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

// ------------------------------------------------------------------ output

void WriteUnit(ae::JsonWriter& w, const Unit& u) {
  w.BeginObject();
  w.Key("traced").Value(u.traced);
  w.Key("wall_s").Value(u.wall_s);
  w.Key("cpu_s").Value(u.cpu_s);
  w.Key("ops").Value(u.ops);
  w.Key("failed_ops").Value(u.failed_ops);
  w.Key("digest").Value(u.digest);
  w.Key("counters").BeginObject();
  for (const auto& [k, v] : u.counters) w.Key(k).Value(v);
  w.EndObject();
  w.Key("layers").BeginObject();
  for (const auto& [k, v] : u.layers) w.Key(k).Value(v);
  w.EndObject();
  w.EndObject();
}

/// The timed phase: repeats `unit` until `seconds` is used up (at least one
/// unit; the next one starts only if half of it still fits).
template <typename Fn>
void TimedUnits(double seconds, bool traced, std::vector<Unit>& out, Fn unit) {
  const auto t0 = Clock::now();
  double last = 0.0;
  do {
    if (traced) SetTelemetry(true);
    Unit u = unit();
    if (traced) SetTelemetry(false);
    u.traced = traced;
    last = u.wall_s;
    out.push_back(std::move(u));
  } while (Since(t0) + 0.5 * last < seconds);
}

/// Untimed warm-up: the first process after an idle gap ran 1.5-3x slower,
/// and the first timed unit after a 0.4 s warm-up still ran 10-15% slower
/// than the rest, so warm up on the same code paths for kWarmupSeconds.
constexpr double kWarmupSeconds = 3.0;

template <typename Fn>
double WarmUp(Fn unit) {
  const auto t0 = Clock::now();
  do {
    unit();
  } while (Since(t0) < kWarmupSeconds);
  return Since(t0);
}

int Main(const Args& args) {
  fs::create_directories(args.workdir);
  const std::string workdir = fs::absolute(args.workdir).string();
  std::vector<double> setup_s;
  std::vector<Unit> units;
  std::map<std::string, double> layers;
  Samples samples;
  double warmup_s = 0.0;
  std::pair<int64_t, int64_t> stat0{}, stat1{};
  // Traced runs split the phase: untraced units first (the overhead
  // baseline), then the traced units the per-layer table comes from.
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;

  if (args.workload == "service_mixed") {
    std::unique_ptr<service::AlphaService> svc;
    for (int i = 0; i < 5; ++i) {
      svc.reset();
      const auto t0 = Clock::now();
      svc = BuildService(workdir + "/svc");
      setup_s.push_back(Since(t0));
    }
    if (args.trace) {
      market::MarketConfig mc;
      mc.num_stocks = 100;
      mc.num_days = 400;
      mc.seed = 13;
      const auto t0 = Clock::now();
      market::Dataset d = market::Dataset::Simulate(mc, {});
      layers["market.simulate_ms"] = 1e3 * Since(t0);
      layers["market.panel_mb"] = static_cast<double>(d.StorageBytes()) / kMiB;
    }
    Samples warm;
    warmup_s = WarmUp([&] { RunServiceUnit(*svc, -1, 4, warm); });
    stat0 = StealTicks();
    Samples untraced;
    TimedUnits(untraced_seconds, false, units, [&] {
      return RunServiceUnit(*svc, args.variant, kJobsPerUnit,
                            args.trace ? untraced : samples);
    });
    if (args.trace) {
      TimedUnits(args.seconds / 2, true, units, [&] {
        Unit u = RunServiceUnit(*svc, args.variant, kJobsPerUnit, samples);
        AddSearchLayers(u);
        u.layers["ckpt.publish_ms"] = SpanMs("checkpoint.write");
        const int64_t writes = CounterValue("ckpt.writes");
        u.layers["ckpt.generations"] = static_cast<double>(writes);
        u.layers["ckpt.snapshot_kb"] =
            static_cast<double>(CounterValue("ckpt.bytes_written")) /
            (1024.0 * static_cast<double>(std::max<int64_t>(1, writes)));
        u.layers["evaluate.ms_p50"] =
            SpanQuantileMs("evolution.evaluate", 0.5);
        u.layers["evaluate.ms_p99"] =
            SpanQuantileMs("evolution.evaluate", 0.99);
        return u;
      });
    }
    stat1 = StealTicks();
    svc.reset();
    fs::remove_all(workdir + "/svc");
  } else {
    const MineShape shape = ShapeOf(args.workload);
    const bool stress = args.workload == "mine_stress_ckpt";
    MineEnv env;
    for (int i = 0; i < shape.setup_repeats; ++i) {
      const auto t0 = Clock::now();
      BuildMineEnv(args.workload, shape, args.threads, env);
      setup_s.push_back(Since(t0));
    }
    if (args.trace) {
      const auto t0 = Clock::now();
      market::Dataset d =
          market::Dataset::Simulate(MarketOf(shape), SplitOf(shape));
      layers["market.simulate_ms"] = 1e3 * Since(t0);
      layers["market.panel_mb"] = static_cast<double>(d.StorageBytes()) / kMiB;
      if (stress) {
        const auto t1 = Clock::now();
        scenario::PanelOverlay overlay(
            scenario::ScenarioSuite::Standard(MarketOf(shape), 77),
            SplitOf(shape));
        layers["scenario.overlay_build_ms"] = 1e3 * Since(t1);
        layers["scenario.resident_mb"] =
            static_cast<double>(overlay.ResidentBytes()) / kMiB;
      }
    }
    MineOptions o;
    o.max_candidates = shape.max_candidates;
    o.threads = args.threads;
    o.pipeline = args.pipeline;
    o.checkpoint = stress;
    o.ckpt_dir = workdir + "/ckpt";
    if (o.checkpoint) fs::create_directories(o.ckpt_dir);

    // Warm-up rounds: the same searches at a quarter of the budget, on
    // seeds no timed unit draws.
    MineOptions warm = o;
    warm.variant = -1;
    warm.rounds = 1;
    warm.max_candidates = std::max<int64_t>(16, o.max_candidates / 4);
    warmup_s = WarmUp([&] { RunMiningUnit(env, warm); });

    o.variant = args.variant;
    stat0 = StealTicks();
    TimedUnits(untraced_seconds, false, units,
               [&] { return RunMiningUnit(env, o); });
    if (args.trace) {
      TimingScorer scorer(env.fitness.get(), &samples,
                          stress ? "score_ms" : "evaluate_ms",
                          static_cast<size_t>(shape.replay_samples));
      MineOptions traced = o;
      traced.timing_scorer = &scorer;
      TimedUnits(args.seconds / 2, true, units,
                 [&] { return RunMiningUnit(env, traced); });
      Replay(env.panel(), env.pool->config(), scorer.TakeKept(), samples,
             layers);
    }
    stat1 = StealTicks();
    if (o.checkpoint) fs::remove_all(o.ckpt_dir);
  }

  ae::JsonWriter w;
  w.BeginObject();
  w.Key("workload").Value(args.workload);
  w.Key("variant").Value(args.variant);
  w.Key("threads").Value(args.threads);
  w.Key("pipeline").Value(args.pipeline);
  w.Key("machine").BeginObject();
  w.Key("nproc").Value(static_cast<int64_t>(std::thread::hardware_concurrency()));
  w.Key("cpu_model").Value(CpuModel());
  w.Key("kernel_variant")
      .Value(core::KernelVariantName(core::DetectKernelVariant()));
  w.Key("ae_native").Value(E2E_AE_NATIVE != 0);
  w.Key("ckpt_fs").Value(FsType(workdir));
  w.Key("steal_ticks").Value(stat1.first - stat0.first);
  w.Key("total_ticks").Value(stat1.second - stat0.second);
  w.EndObject();
  w.Key("setup_s").BeginArray();
  for (double s : setup_s) w.Value(s);
  w.EndArray();
  w.Key("warmup_s").Value(warmup_s);
  w.Key("units").BeginArray();
  for (const Unit& u : units) WriteUnit(w, u);
  w.EndArray();
  w.Key("samples").BeginObject();
  for (const auto& [name, values] : samples.Take()) {
    w.Key(name).BeginArray();
    for (double v : values) w.Value(v);
    w.EndArray();
  }
  w.EndObject();
  w.Key("layers").BeginObject();
  for (const auto& [k, v] : layers) w.Key(k).Value(v);
  w.EndObject();
  w.Key("peak_rss_mb").Value(PeakRssMb());
  w.EndObject();
  std::printf("%s\n", w.TakeString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e: %s\n", e.what());
    return 2;
  }
}
