// Determinism and parity guarantees of the batched, pooled evolution engine:
// pooled results must be bit-identical across thread counts, the serial
// (batch_size = 1, one-thread pool) path must match the serial reference
// search (reference_evolution.h), the automatic batch width must follow the
// pool's thread count, and the concurrent multi-seed miner must reproduce
// its serial equivalent.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator_pool.h"
#include "core/evolution.h"
#include "core/generators.h"
#include "core/mining.h"
#include "market/simulator.h"
#include "reference_evolution.h"
#include "util/threadpool.h"

namespace alphaevolve::core {
namespace {

using testutil::ExpectSameCache;
using testutil::ExpectSameSearch;

class ParallelEvolutionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    market::MarketConfig mc = market::MarketConfig::BenchScale();
    mc.num_stocks = 24;
    mc.num_days = 220;
    mc.seed = 13;
    dataset_ = new market::Dataset(
        market::Dataset::Simulate(mc, market::DatasetConfig{}));
  }
  static void TearDownTestSuite() { delete dataset_; }

  static market::Dataset* dataset_;
};

market::Dataset* ParallelEvolutionTest::dataset_ = nullptr;

TEST_F(ParallelEvolutionTest, ForEachEvaluateMatchesSerialEvaluate) {
  EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 4);
  Evaluator serial(*dataset_, EvaluatorConfig{});

  Mutator mutator{MutatorConfig{}};
  Rng rng(21);
  std::vector<AlphaProgram> programs;
  AlphaProgram program = MakeExpertAlpha(dataset_->window());
  for (int i = 0; i < 12; ++i) {
    program = mutator.Mutate(program, rng);
    programs.push_back(program);
  }

  std::vector<AlphaMetrics> pooled(programs.size());
  TaskGroup group(pool.thread_pool());
  pool.ForEachAsync(static_cast<int>(programs.size()),
                    [&](Evaluator& evaluator, int i) {
                      const size_t k = static_cast<size_t>(i);
                      pooled[k] = evaluator.Evaluate(
                          programs[k], /*seed=*/k + 1, /*include_test=*/true);
                    },
                    group);
  group.WaitAll();
  for (size_t i = 0; i < programs.size(); ++i) {
    const AlphaMetrics expected = serial.Evaluate(programs[i], i + 1, true);
    EXPECT_EQ(pooled[i].valid, expected.valid);
    EXPECT_DOUBLE_EQ(pooled[i].ic_valid, expected.ic_valid);
    EXPECT_DOUBLE_EQ(pooled[i].ic_test, expected.ic_test);
    EXPECT_DOUBLE_EQ(pooled[i].sharpe_valid, expected.sharpe_valid);
    EXPECT_EQ(pooled[i].valid_portfolio_returns,
              expected.valid_portfolio_returns);
  }
}

TEST_F(ParallelEvolutionTest, ForEachProbeFingerprintMatchesSerial) {
  EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 3);
  Evaluator serial(*dataset_, EvaluatorConfig{});
  const AlphaProgram expert = MakeExpertAlpha(dataset_->window());
  const AlphaProgram noop = MakeNoOpAlpha();

  const std::vector<const AlphaProgram*> programs = {&expert, &noop, &expert};
  const std::vector<uint64_t> seeds = {1, 2, 1};
  std::vector<uint64_t> prints(programs.size());
  TaskGroup group(pool.thread_pool());
  pool.ForEachAsync(
      3,
      [&](Evaluator& evaluator, int i) {
        const size_t k = static_cast<size_t>(i);
        prints[k] = evaluator.ProbeFingerprint(*programs[k], seeds[k]);
      },
      group);
  group.WaitAll();
  EXPECT_EQ(prints[0], serial.ProbeFingerprint(expert, 1));
  EXPECT_EQ(prints[1], serial.ProbeFingerprint(noop, 2));
  EXPECT_EQ(prints[2], prints[0]);
}

TEST_F(ParallelEvolutionTest, SerialPoolBatchOneMatchesLegacyEngine) {
  EvolutionConfig cfg;
  cfg.max_candidates = 400;
  cfg.seed = 5;
  cfg.trajectory_stride = 25;
  cfg.batch_size = 1;
  const AlphaProgram init = MakeExpertAlpha(dataset_->window());

  // B = 1 on a one-thread pool is the classic one-child-at-a-time loop; it
  // must reproduce the reference bit for bit.
  Evaluator evaluator(*dataset_, EvaluatorConfig{});
  const testutil::ReferenceSearch reference =
      testutil::RunReferenceEvolution(evaluator, cfg, init);
  ASSERT_TRUE(reference.result.has_alpha);

  EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 1);
  Evolution pooled(pool, cfg);
  ExpectSameSearch(reference.result, pooled.Run(init));
  ExpectSameCache(reference.cache, pooled.CacheSnapshot());
}

TEST_F(ParallelEvolutionTest, ResultsIndependentOfThreadCount) {
  // The ISSUE's determinism-parity requirement: num_threads in {1, 4} with a
  // fixed seed and batch size produce identical best_fitness, stats
  // counters, and trajectory — in both fingerprint modes.
  for (const bool use_pruning : {true, false}) {
    EvolutionConfig cfg;
    cfg.max_candidates = 400;
    cfg.seed = 7;
    cfg.trajectory_stride = 25;
    cfg.batch_size = 8;
    cfg.use_pruning = use_pruning;

    EvaluatorPool pool1(*dataset_, EvaluatorConfig{}, 1);
    EvaluatorPool pool4(*dataset_, EvaluatorConfig{}, 4);
    Evolution evo1(pool1, cfg);
    Evolution evo4(pool4, cfg);
    const EvolutionResult r1 = evo1.Run(MakeExpertAlpha(dataset_->window()));
    const EvolutionResult r4 = evo4.Run(MakeExpertAlpha(dataset_->window()));
    ExpectSameSearch(r1, r4);
    ExpectSameCache(evo1.CacheSnapshot(), evo4.CacheSnapshot());
    ASSERT_TRUE(r1.has_alpha);
  }
}

TEST_F(ParallelEvolutionTest, AutomaticBatchWidthFollowsThePool) {
  // batch_size <= 0 resolves to 1 on a one-thread pool and to 4 x the
  // pool's threads otherwise. A search depends only on (seed, batch size),
  // so each automatic run must equal the run with its explicit width.
  EvolutionConfig cfg;
  cfg.max_candidates = 300;
  cfg.seed = 9;
  cfg.trajectory_stride = 25;
  const AlphaProgram init = MakeExpertAlpha(dataset_->window());
  struct Run {
    EvolutionResult result;
    std::vector<std::pair<uint64_t, double>> cache;
  };
  auto run = [&](int threads, int batch_size) {
    EvaluatorPool pool(*dataset_, EvaluatorConfig{}, threads);
    cfg.batch_size = batch_size;
    Evolution evo(pool, cfg);
    Run out{evo.Run(init), {}};
    out.cache = evo.CacheSnapshot();
    return out;
  };

  const Run one = run(1, 1);
  const Run auto_one = run(1, 0);
  ExpectSameSearch(one.result, auto_one.result);
  ExpectSameCache(one.cache, auto_one.cache);

  const Run twelve = run(1, 12);
  const Run auto_three = run(3, 0);
  ExpectSameSearch(twelve.result, auto_three.result);
  ExpectSameCache(twelve.cache, auto_three.cache);

  // The two widths search differently, so each comparison can tell them
  // apart.
  EXPECT_NE(one.cache, twelve.cache);
}

TEST_F(ParallelEvolutionTest, BatchedStatsStillPartitionCandidates) {
  EvolutionConfig cfg;
  cfg.max_candidates = 500;
  cfg.seed = 4;
  cfg.batch_size = 8;  // 500 is not a multiple: the last batch is clamped
  EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 4);
  Evolution evo(pool, cfg);
  const EvolutionResult r = evo.Run(MakeNoOpAlpha());
  EXPECT_EQ(r.stats.candidates, 500);
  EXPECT_EQ(r.stats.candidates, r.stats.evaluated + r.stats.pruned_redundant +
                                    r.stats.cache_hits);
  EXPECT_GT(r.stats.pruned_redundant, 0);
}

TEST_F(ParallelEvolutionTest, ConcurrentMinerMatchesSerialMiner) {
  EvolutionConfig cfg;
  cfg.max_candidates = 250;
  cfg.seed = 1;
  cfg.batch_size = 4;

  EvaluatorPool pool(*dataset_, EvaluatorConfig{}, 4);
  EvaluatorPool serial_pool(*dataset_, EvaluatorConfig{}, 1);
  WeaklyCorrelatedMiner concurrent(pool, cfg);
  WeaklyCorrelatedMiner serial(serial_pool, cfg);

  const AlphaProgram init = MakeExpertAlpha(dataset_->window());
  std::vector<WeaklyCorrelatedMiner::SearchSpec> specs;
  for (uint64_t seed = 11; seed <= 14; ++seed) specs.push_back({init, seed});

  const std::vector<EvolutionResult> batch = concurrent.RunSearches(specs);
  ASSERT_EQ(batch.size(), specs.size());
  for (size_t s = 0; s < specs.size(); ++s) {
    const EvolutionResult expected = serial.RunSearch(init, specs[s].seed);
    ExpectSameSearch(expected, batch[s]);
  }

  // After accepting, the cutoff applies identically through both paths.
  ASSERT_TRUE(batch[0].has_alpha);
  concurrent.Accept("round0", batch[0].best, batch[0].best_metrics);
  serial.Accept("round0", batch[0].best, batch[0].best_metrics);
  const std::vector<EvolutionResult> round1 =
      concurrent.RunSearches({{init, 99}});
  const EvolutionResult round1_serial = serial.RunSearch(init, 99);
  ASSERT_EQ(round1.size(), 1u);
  ExpectSameSearch(round1_serial, round1[0]);
}

}  // namespace
}  // namespace alphaevolve::core
