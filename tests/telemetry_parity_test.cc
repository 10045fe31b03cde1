// Non-interference contract of the telemetry layer: with telemetry disabled
// (the default) mining is bit-identical to an instrumented-but-off run at
// every thread count and pipeline depth, and with telemetry enabled the
// *semantic* counters (evolution.*) are invariant across thread counts —
// they count decisions made in deterministic batch/commit order, not
// scheduling accidents.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator_pool.h"
#include "core/evolution.h"
#include "core/generators.h"
#include "market/simulator.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "scenario/scenario.h"
#include "scenario/scenario_fitness.h"

namespace alphaevolve::core {
namespace {

const char* const kSemanticCounters[] = {
    "evolution.candidates",        "evolution.evaluated",
    "evolution.cache_hits",        "evolution.pruned_redundant",
    "evolution.cutoff_discarded",  "evolution.screened_out",
    "evolution.scenario_evals",
};

class TelemetryParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    market::MarketConfig mc = market::MarketConfig::BenchScale();
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

  void TearDown() override {
    obs::Configure(obs::TelemetryConfig{});  // default off
    obs::MetricsRegistry::Default().Reset();
    obs::TraceRecorder::Default().Clear();
  }

  static void ExpectIdentical(const EvolutionResult& a,
                              const EvolutionResult& b) {
    ASSERT_EQ(a.has_alpha, b.has_alpha);
    EXPECT_EQ(a.best, b.best);
    EXPECT_DOUBLE_EQ(a.best_fitness, b.best_fitness);
    EXPECT_EQ(a.stats.candidates, b.stats.candidates);
    EXPECT_EQ(a.stats.evaluated, b.stats.evaluated);
    EXPECT_EQ(a.stats.pruned_redundant, b.stats.pruned_redundant);
    EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
    EXPECT_EQ(a.stats.cutoff_discarded, b.stats.cutoff_discarded);
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
    for (size_t i = 0; i < a.trajectory.size(); ++i) {
      EXPECT_EQ(a.trajectory[i].first, b.trajectory[i].first);
      EXPECT_DOUBLE_EQ(a.trajectory[i].second, b.trajectory[i].second);
    }
  }

  static EvolutionConfig BaseConfig() {
    EvolutionConfig cfg;
    cfg.max_candidates = 350;
    cfg.seed = 7;
    cfg.trajectory_stride = 25;
    cfg.batch_size = 8;
    return cfg;
  }

  static EvolutionResult RunMining(int threads, int depth,
                                   bool telemetry_on) {
    EvolutionConfig cfg = BaseConfig();
    cfg.pipeline_depth = depth;
    obs::TelemetryConfig telemetry;
    telemetry.enabled = telemetry_on;
    telemetry.tracing = telemetry_on;
    obs::Configure(telemetry);
    EvaluatorPool pool(*dataset_, EvaluatorConfig{}, threads);
    Evolution evo(pool, cfg);
    return evo.Run(MakeExpertAlpha(dataset_->window()));
  }

  static std::map<std::string, int64_t> SemanticCounterSnapshot() {
    std::map<std::string, int64_t> snapshot;
    for (const char* name : kSemanticCounters) {
      snapshot[name] =
          obs::MetricsRegistry::Default().GetCounter(name).Value();
    }
    return snapshot;
  }

  static market::Dataset* dataset_;
};

market::Dataset* TelemetryParityTest::dataset_ = nullptr;

TEST_F(TelemetryParityTest, OnOffBitIdenticalAcrossThreadsAndDepths) {
  for (const int depth : {0, 2}) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << "depth=" << depth << " threads=" << threads);
      const EvolutionResult off = RunMining(threads, depth, false);
      const EvolutionResult on = RunMining(threads, depth, true);
      ASSERT_TRUE(off.has_alpha);
      ExpectIdentical(off, on);
    }
  }
}

TEST_F(TelemetryParityTest, SemanticCountersInvariantAcrossThreadCounts) {
  for (const int depth : {0, 2}) {
    SCOPED_TRACE(::testing::Message() << "depth=" << depth);
    std::map<std::string, int64_t> reference;
    EvolutionResult reference_result;
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      obs::MetricsRegistry::Default().Reset();
      const EvolutionResult r = RunMining(threads, depth, true);
      const std::map<std::string, int64_t> snapshot =
          SemanticCounterSnapshot();
      // The registry mirrors this run's EvolutionStats exactly (the
      // registry was reset, so this run is the only contributor).
      EXPECT_EQ(snapshot.at("evolution.candidates"), r.stats.candidates);
      EXPECT_EQ(snapshot.at("evolution.evaluated"), r.stats.evaluated);
      EXPECT_EQ(snapshot.at("evolution.cache_hits"), r.stats.cache_hits);
      EXPECT_EQ(snapshot.at("evolution.pruned_redundant"),
                r.stats.pruned_redundant);
      EXPECT_EQ(snapshot.at("evolution.cutoff_discarded"),
                r.stats.cutoff_discarded);
      if (reference.empty()) {
        reference = snapshot;
        reference_result = r;
      } else {
        EXPECT_EQ(snapshot, reference);
        ExpectIdentical(reference_result, r);
      }
    }
    EXPECT_GT(reference.at("evolution.candidates"), 0);
    EXPECT_GT(reference.at("evolution.evaluated"), 0);
  }
}

TEST_F(TelemetryParityTest, ScenarioStageCountersMatchStatsAndThreads) {
  // Stress-in-the-loop mining: the scenario.* stage counters must agree
  // with the driver's own accounting and stay invariant across thread
  // counts (the cheap-first cascade decides per candidate, not per thread).
  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = 24;
  mc.num_days = 220;
  mc.seed = 13;
  scenario::ScenarioSuite suite = scenario::ScenarioSuite::Standard(mc, 77);
  suite.Truncate(2);
  scenario::ScenarioFitness scorer(suite, market::DatasetConfig{},
                                   EvaluatorConfig{},
                                   ScenarioFitnessOptions{});

  obs::TelemetryConfig on;
  on.enabled = true;
  obs::Configure(on);

  auto run = [&](int threads) {
    EvolutionConfig cfg = BaseConfig();
    cfg.max_candidates = 150;
    EvaluatorPool pool(scorer.baseline_panel(), EvaluatorConfig{}, threads);
    Evolution evo(pool, cfg);
    evo.UseCandidateScorer(&scorer);
    scorer.set_fanout_pool(pool.thread_pool());
    return evo.Run(MakeExpertAlpha(scorer.baseline_panel().window()));
  };
  auto scenario_counter = [](const char* name) {
    return obs::MetricsRegistry::Default().GetCounter(name).Value();
  };

  std::map<std::string, int64_t> reference;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    obs::MetricsRegistry::Default().Reset();
    const EvolutionResult r = run(threads);
    // Every evaluated candidate goes through the stage-1 baseline eval;
    // screen rejects and regime-eval counts mirror the driver's stats.
    EXPECT_EQ(scenario_counter("scenario.baseline_evals"),
              r.stats.evaluated);
    EXPECT_EQ(scenario_counter("scenario.screen_rejects"),
              r.stats.screened_out);
    EXPECT_EQ(scenario_counter("evolution.scenario_evals"),
              r.stats.scenario_evals);
    const std::map<std::string, int64_t> snapshot = {
        {"baseline", scenario_counter("scenario.baseline_evals")},
        {"screen", scenario_counter("scenario.screen_rejects")},
        {"cutoff", scenario_counter("scenario.cutoff_rejects")},
        {"regime", scenario_counter("scenario.regime_evals")},
        {"invalid", scenario_counter("scenario.invalid")},
    };
    if (reference.empty()) {
      reference = snapshot;
    } else {
      EXPECT_EQ(snapshot, reference);
    }
  }
  EXPECT_GT(reference.at("baseline"), 0);
}

}  // namespace
}  // namespace alphaevolve::core
