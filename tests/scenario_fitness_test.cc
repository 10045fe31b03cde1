// Stress-in-the-loop mining contract: with a ScenarioFitness installed,
// Evolution::Run must stay bit-identical across thread counts and pipeline
// depths; a single-regime suite must reproduce the plain driver exactly
// (results, stats, trajectory); the cheap-first screen must reject only
// below its threshold (screen_min_ic = -1 never fires); the aggregations
// must match per-regime evaluations seeded by RegimeSeed; and the
// screened_out / scenario_evals counters must reconcile through
// EvolutionStats and SearchStats. (That every evaluator read honours the
// overlay is panel_overlay_test's view-vs-copy check.)

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator_pool.h"
#include "core/evolution.h"
#include "core/generators.h"
#include "core/mining.h"
#include "market/dataset.h"
#include "reference_evolution.h"
#include "scenario/scenario.h"
#include "scenario/scenario_fitness.h"
#include "test_util.h"

namespace alphaevolve::scenario {
namespace {

using core::EvolutionConfig;
using core::EvolutionResult;
using core::ScenarioAggregation;

market::MarketConfig SmallBase() {
  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = 24;
  mc.num_days = 200;
  mc.seed = 13;
  return mc;
}

EvolutionConfig BaseConfig() {
  EvolutionConfig cfg;
  cfg.max_candidates = 220;
  cfg.population_size = 50;
  cfg.seed = 7;
  cfg.trajectory_stride = 25;
  cfg.batch_size = 8;  // fixed: results must not depend on the thread count
  return cfg;
}

/// Same search, scenario accounting aside (the caller checks that).
void ExpectIdentical(const EvolutionResult& a, const EvolutionResult& b) {
  ASSERT_EQ(a.has_alpha, b.has_alpha);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_fitness, b.best_fitness);  // bitwise
  EXPECT_EQ(a.stats.candidates, b.stats.candidates);
  EXPECT_EQ(a.stats.evaluated, b.stats.evaluated);
  EXPECT_EQ(a.stats.pruned_redundant, b.stats.pruned_redundant);
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
  EXPECT_EQ(a.stats.cutoff_discarded, b.stats.cutoff_discarded);
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].first, b.trajectory[i].first);
    EXPECT_EQ(a.trajectory[i].second, b.trajectory[i].second);
  }
}

/// One scenario-fitness mining run: pool over the scorer's baseline panel,
/// scorer fanning out over the pool's threads. `cache` (optional) receives
/// the run's final fingerprint-cache contents.
EvolutionResult RunWithScorer(
    ScenarioFitness& scorer, EvolutionConfig cfg, int num_threads,
    std::vector<std::pair<uint64_t, double>>* cache = nullptr) {
  core::EvaluatorPool pool(scorer.baseline_panel(), core::EvaluatorConfig{},
                           num_threads);
  core::Evolution evolution(pool, cfg);
  evolution.UseCandidateScorer(&scorer);
  scorer.set_fanout_pool(pool.thread_pool());
  const EvolutionResult r =
      evolution.Run(core::MakeExpertAlpha(market::kNumFeatures));
  scorer.set_fanout_pool(nullptr);
  if (cache != nullptr) *cache = evolution.CacheSnapshot();
  return r;
}

TEST(ScenarioFitnessTest, SingleRegimeReproducesThePlainDriverExactly) {
  ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 31);
  suite.Truncate(1);  // baseline only
  ScenarioFitness scorer(suite, market::DatasetConfig{},
                         core::EvaluatorConfig{},
                         core::ScenarioFitnessOptions{});

  const EvolutionConfig cfg = BaseConfig();
  // Plain driver over the plain base dataset.
  const market::Dataset base =
      market::Dataset::Simulate(SmallBase(), market::DatasetConfig{});
  core::EvaluatorPool plain_pool(base, core::EvaluatorConfig{}, 4);
  core::Evolution plain(plain_pool, cfg);
  const EvolutionResult expected =
      plain.Run(core::MakeExpertAlpha(market::kNumFeatures));

  const EvolutionResult got = RunWithScorer(scorer, cfg, 4);
  ExpectIdentical(expected, got);
  // The only divergence allowed: scenario accounting is live in the scorer
  // path (one regime paid per evaluation) and zero in the plain path.
  EXPECT_EQ(expected.stats.scenario_evals, 0);
  EXPECT_EQ(got.stats.scenario_evals, got.stats.evaluated);
  EXPECT_EQ(got.stats.screened_out, 0);
}

TEST(ScenarioFitnessTest, BitIdenticalAcrossThreadCountsAndPipelineDepths) {
  ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 31);
  suite.Truncate(3);  // baseline, crash, bull
  ScenarioFitness scorer(suite, market::DatasetConfig{},
                         core::EvaluatorConfig{},
                         core::ScenarioFitnessOptions{});

  // The serial reference search scores through the same scorer (serial
  // regime fan-out) with a baseline evaluator of its own.
  EvolutionConfig cfg = BaseConfig();
  core::Evaluator evaluator(scorer.baseline_panel(), core::EvaluatorConfig{});
  const testutil::ReferenceSearch reference = testutil::RunReferenceEvolution(
      evaluator, cfg, core::MakeExpertAlpha(market::kNumFeatures), {},
      &scorer);
  EXPECT_GT(reference.result.stats.scenario_evals,
            reference.result.stats.evaluated);

  for (const int threads : {1, 4, 8}) {
    for (const int depth : {0, 1, 2}) {
      cfg.pipeline_depth = depth;
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " depth=" + std::to_string(depth));
      std::vector<std::pair<uint64_t, double>> cache;
      testutil::ExpectSameSearch(reference.result,
                                 RunWithScorer(scorer, cfg, threads, &cache));
      testutil::ExpectSameCache(reference.cache, cache);
    }
  }
}

TEST(ScenarioFitnessTest, ScreeningAccountingAndScreenOffEquivalence) {
  ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 31);
  suite.Truncate(3);
  const EvolutionConfig cfg = BaseConfig();

  // An unreachable threshold screens every cutoff-surviving valid candidate:
  // nobody pays for regimes 1..S-1.
  core::ScenarioFitnessOptions harsh;
  harsh.screen_min_ic = 0.9;
  ScenarioFitness harsh_scorer(suite, market::DatasetConfig{},
                               core::EvaluatorConfig{}, harsh);
  const EvolutionResult screened = RunWithScorer(harsh_scorer, cfg, 4);
  EXPECT_GT(screened.stats.screened_out, 0);
  EXPECT_EQ(screened.stats.scenario_evals, screened.stats.evaluated);

  // screen_min_ic = -1 can never fire (valid ICs live in [-1, 1]): it is
  // the screen-off setting.
  core::ScenarioFitnessOptions never;
  never.screen_min_ic = -1.0;
  ScenarioFitness never_scorer(suite, market::DatasetConfig{},
                               core::EvaluatorConfig{}, never);
  const EvolutionResult never_r = RunWithScorer(never_scorer, cfg, 4);
  EXPECT_EQ(never_r.stats.screened_out, 0);

  // Each evaluation pays between 1 (invalid/cutoff baseline) and S regimes.
  EXPECT_GE(never_r.stats.scenario_evals, never_r.stats.evaluated);
  EXPECT_LE(never_r.stats.scenario_evals, 3 * never_r.stats.evaluated);
}

TEST(ScenarioFitnessTest, SearchStatsCarryScenarioAccounting) {
  ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 31);
  suite.Truncate(2);
  ScenarioFitness scorer(suite, market::DatasetConfig{},
                         core::EvaluatorConfig{},
                         core::ScenarioFitnessOptions{});

  EvolutionConfig cfg = BaseConfig();
  cfg.max_candidates = 120;
  core::EvaluatorPool pool(scorer.baseline_panel(), core::EvaluatorConfig{}, 4);
  core::WeaklyCorrelatedMiner miner(pool, cfg);
  miner.UseCandidateScorer(&scorer);
  scorer.set_fanout_pool(pool.thread_pool());

  const core::AlphaProgram init = core::MakeExpertAlpha(market::kNumFeatures);
  const auto results = miner.RunSearches({{init, 11}, {init, 12}});
  ASSERT_EQ(results.size(), 2u);
  for (size_t s = 0; s < results.size(); ++s) {
    const core::SearchStats stats =
        core::SearchStats::FromEvolution(11 + s, results[s].stats);
    EXPECT_EQ(stats.seed, 11 + s);
    EXPECT_EQ(stats.screened_out, results[s].stats.screened_out);
    EXPECT_EQ(stats.scenario_evals, results[s].stats.scenario_evals);
    EXPECT_GE(stats.scenario_evals, stats.evaluated);
  }
  scorer.set_fanout_pool(nullptr);
}

TEST(ScenarioFitnessTest, AggregationModesMatchHandComputedValues) {
  ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 31);
  suite.Truncate(3);
  const market::DatasetConfig dc;
  const core::AlphaProgram program =
      core::MakeExpertAlpha(market::kNumFeatures);
  const uint64_t seed = 99;

  // Reference: evaluate each regime directly on the overlay views.
  core::ScenarioFitnessOptions opts;
  opts.screen_min_ic = -1.0;  // screen off: every regime is paid
  ScenarioFitness worst_scorer(suite, dc, core::EvaluatorConfig{}, opts);
  const PanelOverlay& panels = worst_scorer.panels();
  std::vector<core::AlphaMetrics> per_regime;
  for (int i = 0; i < panels.num_panels(); ++i) {
    core::Evaluator evaluator(panels.panel(i), core::EvaluatorConfig{});
    per_regime.push_back(evaluator.Evaluate(
        program, RegimeSeed(seed, i, panels.spec(i)), /*include_test=*/false));
    ASSERT_TRUE(per_regime.back().valid);
  }

  core::Evaluator baseline(worst_scorer.baseline_panel(),
                           core::EvaluatorConfig{});
  const auto outcome_worst =
      worst_scorer.Score(baseline, program, seed, {}, 0.15);
  EXPECT_EQ(outcome_worst.regimes_evaluated, 3);
  EXPECT_FALSE(outcome_worst.screened_out);
  double worst = per_regime[0].ic_valid;
  for (const auto& m : per_regime) worst = std::min(worst, m.ic_valid);
  EXPECT_EQ(outcome_worst.fitness, worst);
  // The baseline keeps the full book even with nothing accepted; only the
  // regime fan-out may skip it.
  testutil::ExpectSameMetrics(outcome_worst.baseline, per_regime[0]);

  opts.aggregation = ScenarioAggregation::kMean;
  ScenarioFitness mean_scorer(suite, dc, core::EvaluatorConfig{}, opts);
  const auto outcome_mean = mean_scorer.Score(baseline, program, seed, {}, 0.15);
  double ic_sum = 0.0;
  for (const auto& m : per_regime) ic_sum += m.ic_valid;
  EXPECT_EQ(outcome_mean.fitness, ic_sum / 3.0);

  opts.aggregation = ScenarioAggregation::kCostAdjusted;
  ScenarioFitness cost_scorer(suite, dc, core::EvaluatorConfig{}, opts);
  const auto outcome_cost = cost_scorer.Score(baseline, program, seed, {}, 0.15);
  double turnover_sum = 0.0;
  for (const auto& m : per_regime) turnover_sum += m.mean_turnover_valid;
  EXPECT_EQ(outcome_cost.fitness,
            (ic_sum - core::kCostPenalty * turnover_sum) / 3.0);
  EXPECT_LE(outcome_cost.fitness, outcome_mean.fitness);
}

TEST(ScenarioFitnessTest, CutoffAppliesOnBaselineReturnsBeforeFanOut) {
  ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 31);
  suite.Truncate(3);
  ScenarioFitness scorer(suite, market::DatasetConfig{},
                         core::EvaluatorConfig{},
                         core::ScenarioFitnessOptions{});
  core::Evaluator baseline(scorer.baseline_panel(), core::EvaluatorConfig{});
  const core::AlphaProgram program =
      core::MakeExpertAlpha(market::kNumFeatures);

  // Perfectly self-correlated accepted set: the candidate's own returns.
  const auto self = baseline.Evaluate(program, 5, /*include_test=*/false);
  ASSERT_TRUE(self.valid);
  const auto outcome =
      scorer.Score(baseline, program, 5, {self.valid_portfolio_returns}, 0.15);
  EXPECT_TRUE(outcome.cutoff_discarded);
  EXPECT_EQ(outcome.fitness, core::kInvalidFitness);
  EXPECT_EQ(outcome.regimes_evaluated, 1);  // fan-out never paid
}

}  // namespace
}  // namespace alphaevolve::scenario
