#include "scenario/scenario_fitness.h"

#include <algorithm>

#include "eval/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/threadpool.h"

namespace alphaevolve::scenario {

namespace {

/// Per-stage accounting for the cheap-first scoring cascade. Workers score
/// concurrently, so these use the striped counters; totals are still
/// thread-count invariant because every candidate passes through exactly one
/// reject path (or the full fan-out) regardless of scheduling.
struct StageCounters {
  obs::Counter& baseline_evals;
  obs::Counter& cutoff_rejects;
  obs::Counter& screen_rejects;
  obs::Counter& regime_evals;
  obs::Counter& invalid;

  static StageCounters& Get() {
    static StageCounters* c = [] {
      auto& reg = obs::MetricsRegistry::Default();
      return new StageCounters{reg.GetCounter("scenario.baseline_evals"),
                               reg.GetCounter("scenario.cutoff_rejects"),
                               reg.GetCounter("scenario.screen_rejects"),
                               reg.GetCounter("scenario.regime_evals"),
                               reg.GetCounter("scenario.invalid")};
    }();
    return *c;
  }
};

}  // namespace

ScenarioFitness::ScenarioFitness(const ScenarioSuite& suite,
                                 const market::DatasetConfig& dc,
                                 const core::EvaluatorConfig& eval_config,
                                 core::ScenarioFitnessOptions options)
    : options_(options), overlay_(suite, dc) {
  // One regime evaluation is the fan-out's unit of work; leasing keeps
  // concurrent Score calls on disjoint evaluators without any threads of
  // these pools' own.
  for (int i = 1; i < overlay_.num_panels(); ++i) {
    regime_pools_.push_back(std::make_unique<core::EvaluatorPool>(
        overlay_.panel(i), eval_config, /*num_threads=*/1));
  }
}

core::ScoreOutcome ScenarioFitness::Score(
    core::Evaluator& baseline_evaluator, const core::AlphaProgram& program,
    uint64_t seed,
    const std::vector<std::vector<double>>& accepted_valid_returns,
    double correlation_cutoff) {
  AE_SPAN("scenario.score");
  core::ScoreOutcome out;

  // Stage 1 — the baseline evaluation. It keeps the full book even with
  // nothing accepted: out.baseline is reported with its Sharpe and gross
  // series.
  out.baseline =
      baseline_evaluator.Evaluate(program, seed, /*include_test=*/false);
  out.regimes_evaluated = 1;
  if (obs::Enabled()) StageCounters::Get().baseline_evals.Add();
  if (!out.baseline.valid) {
    if (obs::Enabled()) StageCounters::Get().invalid.Add();
    return out;  // fitness stays kInvalidFitness
  }

  // Stage 2 — weak-correlation cutoff on the baseline validation returns.
  if (eval::BreaksCorrelationCutoff(out.baseline.valid_portfolio_returns,
                                    accepted_valid_returns,
                                    correlation_cutoff)) {
    out.cutoff_discarded = true;
    if (obs::Enabled()) StageCounters::Get().cutoff_rejects.Add();
    return out;
  }

  const int regimes = num_regimes();

  // Stage 3 — the static screen: don't pay for S-1 regime evaluations on a
  // candidate whose baseline IC already disqualifies it. Never applied to a
  // single-regime suite (stage 4 is free there), which keeps single-scenario
  // mode bit-identical to the plain driver.
  if (regimes > 1 && out.baseline.ic_valid < options_.screen_min_ic) {
    out.screened_out = true;
    if (obs::Enabled()) StageCounters::Get().screen_rejects.Add();
    return out;
  }

  // Stage 4 — fan out over the remaining regimes. Each task leases that
  // regime's evaluator; with a fanout pool the tasks are work-stolen
  // alongside other candidates' evaluations (WaitAll helps drain the shared
  // queue, so nesting under a pool worker cannot deadlock). These
  // evaluations never feed the cutoff, so they build the long-short book
  // only for kCostAdjusted, the one aggregation that reads turnover.
  std::vector<core::AlphaMetrics> metrics(static_cast<size_t>(regimes));
  metrics[0] = out.baseline;
  const bool with_book =
      options_.aggregation == core::ScenarioAggregation::kCostAdjusted;
  {
    AE_SPAN("scenario.regime_fanout");
    TaskGroup group(fanout_pool_);
    for (int i = 1; i < regimes; ++i) {
      group.Submit([this, i, &program, seed, with_book, &metrics] {
        AE_SPAN("scenario.regime_eval");
        core::EvaluatorPool::Lease lease(
            *regime_pools_[static_cast<size_t>(i - 1)]);
        metrics[static_cast<size_t>(i)] = lease->EvaluateFitness(
            program, RegimeSeed(seed, i, overlay_.spec(i)), with_book);
      });
    }
    group.WaitAll();
  }
  out.regimes_evaluated = regimes;
  if (obs::Enabled()) {
    StageCounters::Get().regime_evals.Add(regimes - 1);
  }

  // Stage 5 — aggregate in suite order. A candidate that degenerates in any
  // regime (non-finite predictions under stress) is not a durable alpha.
  for (const auto& m : metrics) {
    if (!m.valid) {
      if (obs::Enabled()) StageCounters::Get().invalid.Add();
      return out;  // fitness stays kInvalidFitness
    }
  }
  switch (options_.aggregation) {
    case core::ScenarioAggregation::kWorstCase: {
      double worst = metrics[0].ic_valid;
      for (const auto& m : metrics) worst = std::min(worst, m.ic_valid);
      out.fitness = worst;
      break;
    }
    case core::ScenarioAggregation::kMean: {
      double sum = 0.0;
      for (const auto& m : metrics) sum += m.ic_valid;
      out.fitness = sum / static_cast<double>(regimes);
      break;
    }
    case core::ScenarioAggregation::kCostAdjusted: {
      // Mean IC less a turnover penalty — a high-churn alpha must clear its
      // trading costs in every regime. Unclamped: can drop below
      // kInvalidFitness for extreme churn, which only rejects harder.
      double ic_sum = 0.0, turnover_sum = 0.0;
      for (const auto& m : metrics) {
        ic_sum += m.ic_valid;
        turnover_sum += m.mean_turnover_valid;
      }
      out.fitness = (ic_sum - core::kCostPenalty * turnover_sum) /
                    static_cast<double>(regimes);
      break;
    }
  }
  return out;
}

}  // namespace alphaevolve::scenario
