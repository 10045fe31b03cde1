// Determinism contract of the evolution driver: at every pipeline depth
// (0 = lockstep) and thread count, Evolution::Run must produce accepted
// alphas, fitnesses, winner metrics, stats counters, trajectory, and
// fingerprint-cache contents bit-identical to the serial reference search
// (reference_evolution.h) for the same (seed, batch_size). A concurrent
// round of pipelined searches must match each search run alone. Also covers
// the rejection of a negative depth.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator_pool.h"
#include "core/evolution.h"
#include "core/generators.h"
#include "core/mining.h"
#include "market/simulator.h"
#include "reference_evolution.h"
#include "util/check.h"

namespace alphaevolve::core {
namespace {

using testutil::ExpectSameCache;
using testutil::ExpectSameSearch;
using testutil::RunReferenceEvolution;

class PipelinedEvolutionTest : public ::testing::Test {
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

  static EvolutionConfig BaseConfig() {
    EvolutionConfig cfg;
    cfg.max_candidates = 350;
    cfg.seed = 7;
    cfg.trajectory_stride = 25;
    cfg.batch_size = 8;
    return cfg;
  }

  static market::Dataset* dataset_;
};

market::Dataset* PipelinedEvolutionTest::dataset_ = nullptr;

TEST_F(PipelinedEvolutionTest, BitIdenticalToSynchronousAcrossDepthsThreads) {
  // The acceptance matrix: depths {0, 1, 2, 4} x threads {1, 8} against the
  // serial reference, in both fingerprint modes. (A one-thread pool has no
  // workers to overlap with, so its arms all run at depth 0.)
  const AlphaProgram init = MakeExpertAlpha(dataset_->window());
  for (const bool use_pruning : {true, false}) {
    EvolutionConfig cfg = BaseConfig();
    cfg.use_pruning = use_pruning;
    Evaluator evaluator(*dataset_, EvaluatorConfig{});
    const testutil::ReferenceSearch reference =
        RunReferenceEvolution(evaluator, cfg, init);
    ASSERT_TRUE(reference.result.has_alpha);

    for (const int depth : {0, 1, 2, 4}) {
      for (const int threads : {1, 8}) {
        SCOPED_TRACE(::testing::Message() << "pruning=" << use_pruning
                                          << " depth=" << depth
                                          << " threads=" << threads);
        cfg.pipeline_depth = depth;
        EvaluatorPool pool(*dataset_, EvaluatorConfig{}, threads);
        Evolution evo(pool, cfg);
        ExpectSameSearch(reference.result, evo.Run(init));
        ExpectSameCache(reference.cache, evo.CacheSnapshot());
      }
    }
  }
}

TEST_F(PipelinedEvolutionTest, CutoffAccountingMatchesSynchronous) {
  // With an accepted set in play, the weak-correlation cutoff runs inside
  // the async stage; discard decisions and counters must match the
  // reference at depth 0 and in flight.
  EvolutionConfig cfg = BaseConfig();
  cfg.pipeline_depth = 0;
  const AlphaProgram init = MakeExpertAlpha(dataset_->window());
  EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 4);
  Evolution seed_run(pool, cfg);
  const EvolutionResult seed_result = seed_run.Run(init);
  ASSERT_TRUE(seed_result.has_alpha);
  const std::vector<std::vector<double>> accepted = {
      seed_result.best_metrics.valid_portfolio_returns};

  cfg.seed = 91;
  Evaluator evaluator(*dataset_, EvaluatorConfig{});
  const testutil::ReferenceSearch reference =
      RunReferenceEvolution(evaluator, cfg, init, accepted);
  EXPECT_GT(reference.result.stats.cutoff_discarded, 0);

  for (const int depth : {0, 2}) {
    SCOPED_TRACE(::testing::Message() << "depth=" << depth);
    cfg.pipeline_depth = depth;
    Evolution evo(pool, cfg, accepted);
    ExpectSameSearch(reference.result, evo.Run(init));
    ExpectSameCache(reference.cache, evo.CacheSnapshot());
  }
}

TEST_F(PipelinedEvolutionTest, ConcurrentRoundMatchesEachSearchAlone) {
  // A concurrent multi-seed round of pipelined searches: each search owns
  // its cache, so every search must match itself run alone, lockstep, on a
  // one-thread pool — result, stats split and trajectory alike. Under TSan
  // this is the round whose drivers share one pool but no cache.
  EvolutionConfig cfg = BaseConfig();
  cfg.max_candidates = 250;
  cfg.batch_size = 4;
  cfg.pipeline_depth = 2;

  const AlphaProgram init = MakeExpertAlpha(dataset_->window());
  std::vector<WeaklyCorrelatedMiner::SearchSpec> specs;
  for (uint64_t seed = 11; seed <= 14; ++seed) specs.push_back({init, seed});

  EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 4);
  WeaklyCorrelatedMiner miner(pool, cfg);
  const std::vector<EvolutionResult> round = miner.RunSearches(specs);

  cfg.pipeline_depth = 0;
  EvaluatorPool serial_pool(*dataset_, EvaluatorConfig{}, 1);
  WeaklyCorrelatedMiner serial(serial_pool, cfg);

  ASSERT_EQ(round.size(), specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    SCOPED_TRACE(::testing::Message() << "seed " << specs[s].seed);
    ExpectSameSearch(serial.RunSearch(init, specs[s].seed), round[s]);
  }
}

TEST_F(PipelinedEvolutionTest, TimeBudgetedRunTerminatesAndPartitions) {
  EvolutionConfig cfg = BaseConfig();
  cfg.max_candidates = 0;
  cfg.time_budget_seconds = 0.3;
  cfg.pipeline_depth = 2;
  EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 4);
  Evolution evo(pool, cfg);
  const EvolutionResult r = evo.Run(MakeExpertAlpha(dataset_->window()));
  EXPECT_GT(r.stats.candidates, 0);
  EXPECT_EQ(r.stats.candidates, r.stats.evaluated + r.stats.cache_hits +
                                    r.stats.pruned_redundant);
}

TEST_F(PipelinedEvolutionTest, NegativePipelineDepthIsRejected) {
  // A negative depth could never generate a batch; the constructor refuses
  // it up front.
  EvolutionConfig cfg = BaseConfig();
  cfg.pipeline_depth = -1;
  EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 4);
  EXPECT_THROW(Evolution(pool, cfg), CheckError);
}

}  // namespace
}  // namespace alphaevolve::core
