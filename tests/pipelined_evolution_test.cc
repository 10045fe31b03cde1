// Determinism contract of the evolution driver: at every pipeline depth
// (0 = lockstep) and thread count, Evolution::Run must produce accepted
// alphas, fitnesses, winner metrics, stats counters, trajectory, and
// fingerprint-cache contents bit-identical to the serial reference search
// (reference_evolution.h) for the same (seed, batch_size). Runs that share
// one round cache must keep per-search attribution and cache contents when
// sharers run sequentially, at depth 0 and deeper. Also covers
// EvaluatorPool::ForEachAsync, the async pool primitive the driver launches
// evaluations through, and the rejection of a negative depth.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator_pool.h"
#include "core/evolution.h"
#include "core/fingerprint_cache.h"
#include "core/generators.h"
#include "core/mining.h"
#include "market/simulator.h"
#include "reference_evolution.h"
#include "util/check.h"
#include "util/threadpool.h"

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

TEST_F(PipelinedEvolutionTest, SharedRoundCacheSequentialAttributionUnchanged) {
  // Two searches sharing one round cache, run back to back (the
  // deterministic sharing schedule): depth 2 must reproduce depth 0's
  // per-search hit/evaluated attribution exactly, and leave the shared
  // cache with the same contents — its speculative frontier probes stand in
  // for precisely the inserts depth 0 would have committed.
  const AlphaProgram init = MakeExpertAlpha(dataset_->window());
  auto run_pair = [&](int depth, FingerprintCache* cache,
                      std::vector<EvolutionResult>* out) {
    EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 4);
    for (const uint64_t seed : {31ULL, 32ULL}) {
      EvolutionConfig cfg = BaseConfig();
      cfg.seed = seed;
      cfg.pipeline_depth = depth;
      Evolution evo(pool, cfg);
      evo.UseSharedCache(cache);
      out->push_back(evo.Run(init));
    }
  };

  FingerprintCache sync_cache;
  std::vector<EvolutionResult> sync_results;
  run_pair(0, &sync_cache, &sync_results);

  FingerprintCache pipelined_cache;
  std::vector<EvolutionResult> pipelined_results;
  run_pair(2, &pipelined_cache, &pipelined_results);

  ASSERT_EQ(sync_results.size(), pipelined_results.size());
  for (size_t i = 0; i < sync_results.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "search " << i);
    ExpectSameSearch(sync_results[i], pipelined_results[i]);
  }
  // The second search must actually have hit the first one's entries, and
  // the shared cache must end with the depth-0 run's entries.
  EXPECT_GT(sync_results[1].stats.cache_hits, 0);
  ExpectSameCache(sync_cache.Snapshot(), pipelined_cache.Snapshot());
}

TEST_F(PipelinedEvolutionTest, ConcurrentSharedRoundMinerPreservesResults) {
  // A concurrent multi-seed round with the shared round cache and pipelined
  // searches: results must match isolated serial searches; the per-search
  // attribution still partitions each search's candidates (the split itself
  // is schedule-dependent under concurrent sharing, at any depth).
  EvolutionConfig cfg = BaseConfig();
  cfg.max_candidates = 250;
  cfg.batch_size = 4;
  cfg.pipeline_depth = 2;

  const AlphaProgram init = MakeExpertAlpha(dataset_->window());
  std::vector<WeaklyCorrelatedMiner::SearchSpec> specs;
  for (uint64_t seed = 11; seed <= 14; ++seed) specs.push_back({init, seed});

  EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 4);
  WeaklyCorrelatedMiner miner(pool, cfg);
  const std::vector<EvolutionResult> shared = miner.RunSearches(specs);

  cfg.share_round_cache = false;
  cfg.pipeline_depth = 0;
  Evaluator evaluator(*dataset_, EvaluatorConfig{});
  WeaklyCorrelatedMiner serial(evaluator, cfg);

  ASSERT_EQ(shared.size(), specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    SCOPED_TRACE(::testing::Message() << "seed " << specs[s].seed);
    const EvolutionResult expected = serial.RunSearch(init, specs[s].seed);
    ASSERT_EQ(shared[s].has_alpha, expected.has_alpha);
    EXPECT_EQ(shared[s].best, expected.best);
    EXPECT_DOUBLE_EQ(shared[s].best_fitness, expected.best_fitness);
    EXPECT_EQ(shared[s].stats.candidates, expected.stats.candidates);
    EXPECT_EQ(shared[s].stats.pruned_redundant,
              expected.stats.pruned_redundant);
    EXPECT_EQ(shared[s].stats.cache_hits + shared[s].stats.evaluated,
              expected.stats.cache_hits + expected.stats.evaluated);
  }
  const std::vector<SearchStats>& attribution = miner.last_round_stats();
  ASSERT_EQ(attribution.size(), specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    EXPECT_EQ(attribution[s].candidates,
              attribution[s].cache_hits + attribution[s].evaluated +
                  attribution[s].pruned_redundant);
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

TEST_F(PipelinedEvolutionTest, ForEachAsyncMatchesSynchronousBatch) {
  // The driver's launch path: work-stealing workers submitted into a
  // TaskGroup must score exactly what the blocking ForEach scores.
  EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 4);
  Mutator mutator{MutatorConfig{}};
  Rng rng(21);
  std::vector<AlphaProgram> programs;
  AlphaProgram program = MakeExpertAlpha(dataset_->window());
  for (int i = 0; i < 10; ++i) {
    program = mutator.Mutate(program, rng);
    programs.push_back(program);
  }
  const int n = static_cast<int>(programs.size());
  auto score_into = [&programs](std::vector<AlphaMetrics>& out) {
    return [&programs, &out](Evaluator& evaluator, int i) {
      const size_t k = static_cast<size_t>(i);
      out[k] = evaluator.Evaluate(programs[k], /*seed=*/k + 1,
                                  /*include_test=*/true);
    };
  };

  std::vector<AlphaMetrics> sync(programs.size());
  pool.ForEach(n, score_into(sync));
  std::vector<AlphaMetrics> async(programs.size());
  TaskGroup group(pool.thread_pool());
  pool.ForEachAsync(n, score_into(async), group);
  group.WaitAll();
  ASSERT_EQ(async.size(), sync.size());
  for (size_t i = 0; i < sync.size(); ++i) {
    EXPECT_EQ(async[i].valid, sync[i].valid);
    EXPECT_DOUBLE_EQ(async[i].ic_valid, sync[i].ic_valid);
    EXPECT_DOUBLE_EQ(async[i].ic_test, sync[i].ic_test);
    EXPECT_EQ(async[i].valid_portfolio_returns,
              sync[i].valid_portfolio_returns);
  }
}

TEST_F(PipelinedEvolutionTest, NegativePipelineDepthIsRejected) {
  // A negative depth could never generate a batch; both constructors
  // refuse it up front.
  EvolutionConfig cfg = BaseConfig();
  cfg.pipeline_depth = -1;
  Evaluator evaluator(*dataset_, EvaluatorConfig{});
  EXPECT_THROW(Evolution(evaluator, cfg), CheckError);
  EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 4);
  EXPECT_THROW(Evolution(pool, cfg), CheckError);
}

}  // namespace
}  // namespace alphaevolve::core
