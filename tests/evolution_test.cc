#include "core/evolution.h"

#include <chrono>
#include <cmath>

#include <gtest/gtest.h>

#include "core/evaluator_pool.h"
#include "core/generators.h"
#include "core/mining.h"
#include "core/mutator.h"
#include "eval/metrics.h"
#include "market/simulator.h"
#include "test_util.h"
#include "util/rng.h"

namespace alphaevolve::core {
namespace {

/// Shared small simulated market with an embedded learnable signal.
class EvolutionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    market::MarketConfig mc = market::MarketConfig::BenchScale();
    mc.num_stocks = 24;
    mc.num_days = 220;
    mc.seed = 13;
    dataset_ = new market::Dataset(
        market::Dataset::Simulate(mc, market::DatasetConfig{}));
    evaluator_ = new Evaluator(*dataset_, EvaluatorConfig{});
    pool_ = new EvaluatorPool(*dataset_, EvaluatorConfig{}, 1);
  }
  static void TearDownTestSuite() {
    delete pool_;
    delete evaluator_;
    delete dataset_;
  }
  static market::Dataset* dataset_;
  static Evaluator* evaluator_;  ///< direct evaluations
  static EvaluatorPool* pool_;   ///< searches (one thread: runs inline)
};

market::Dataset* EvolutionTest::dataset_ = nullptr;
Evaluator* EvolutionTest::evaluator_ = nullptr;
EvaluatorPool* EvolutionTest::pool_ = nullptr;

TEST_F(EvolutionTest, EvaluatorScoresExpertAlpha) {
  const AlphaMetrics m =
      evaluator_->Evaluate(MakeExpertAlpha(13), /*seed=*/1);
  ASSERT_TRUE(m.valid);
  EXPECT_TRUE(std::isfinite(m.ic_valid));
  EXPECT_TRUE(std::isfinite(m.sharpe_test));
  EXPECT_EQ(m.valid_portfolio_returns.size(),
            dataset_->dates(market::Split::kValid).size());
  EXPECT_EQ(m.test_portfolio_returns.size(),
            dataset_->dates(market::Split::kTest).size());
}

TEST_F(EvolutionTest, EvaluatorMarksDivergentProgramInvalid) {
  AlphaProgram prog = MakeNoOpAlpha();
  Instruction c;
  c.op = Op::kScalarConst;
  c.out = 2;
  c.imm0 = 0.0;
  Instruction recip;
  recip.op = Op::kScalarReciprocal;
  recip.out = kPredictionScalar;
  recip.in1 = 2;
  prog.predict = {c, recip};
  const AlphaMetrics m = evaluator_->Evaluate(prog, 1);
  EXPECT_FALSE(m.valid);
  EXPECT_EQ(m.ic_valid, kInvalidFitness);
}

TEST_F(EvolutionTest, EvaluateFitnessMatchesEvaluateOverFuzzedPrograms) {
  // The search's evaluation against the full one, over mutation chains from
  // every initialization with relation ops allowed, with and without costs.
  // With the book every field must equal Evaluate(…, false) bitwise;
  // without it only valid, timed_out and ic_valid are set, and they match.
  // Each chain also scores a copy whose prediction is 1/0, so non-finite
  // programs are always in the sample.
  EvaluatorConfig costly;
  costly.costs.per_side_bps = 5.0;
  costly.costs.borrow_bps_per_day = 1.0;
  Instruction zero;
  zero.op = Op::kScalarConst;
  zero.out = 9;
  Instruction blow_up;
  blow_up.op = Op::kScalarReciprocal;
  blow_up.out = kPredictionScalar;
  blow_up.in1 = 9;

  for (const EvaluatorConfig& config : {EvaluatorConfig{}, costly}) {
    Evaluator full(*dataset_, config);
    Evaluator search(*dataset_, config);
    const Mutator mutator{MutatorConfig{}};
    Rng rng(41);
    int valid = 0, invalid = 0, relation = 0, random_init = 0;
    auto check = [&](const AlphaProgram& prog, uint64_t seed) {
      const AlphaMetrics want = full.Evaluate(prog, seed, false);
      testutil::ExpectSameMetrics(want,
                                  search.EvaluateFitness(prog, seed, true));
      AlphaMetrics lean_want;
      lean_want.valid = want.valid;
      lean_want.timed_out = want.timed_out;
      lean_want.ic_valid = want.ic_valid;
      testutil::ExpectSameMetrics(lean_want,
                                  search.EvaluateFitness(prog, seed, false));
      if (!want.valid) {
        ++invalid;
        return;
      }
      ++valid;
      for (const auto* list : {&prog.setup, &prog.predict, &prog.update}) {
        for (const Instruction& ins : *list) {
          if (GetOpInfo(ins.op).is_relation) ++relation;
          if (GetOpInfo(ins.op).is_random) ++random_init;
        }
      }
    };
    for (int chain = 0; chain < 12; ++chain) {
      const auto kind = static_cast<InitKind>(chain % 4);
      AlphaProgram prog = MakeInitialAlpha(kind, mutator, rng);
      for (int step = 0; step < 8; ++step) {
        SCOPED_TRACE(::testing::Message() << "chain " << chain << " step "
                                          << step << "\n" << prog.ToString());
        check(prog, rng.NextU64());
        prog = mutator.Mutate(prog, rng);
      }
      AlphaProgram divergent = prog;
      divergent.predict.push_back(zero);
      divergent.predict.push_back(blow_up);
      check(divergent, rng.NextU64());
    }
    EXPECT_GT(valid, 0);
    EXPECT_GE(invalid, 12);
    EXPECT_GT(relation, 0);
    EXPECT_GT(random_init, 0);
  }
}

TEST_F(EvolutionTest, SearchImprovesOnInitialAlpha) {
  const AlphaProgram init = MakeExpertAlpha(13);
  const double init_ic = evaluator_->Evaluate(init, 1).ic_valid;

  EvolutionConfig cfg;
  cfg.max_candidates = 800;
  cfg.seed = 3;
  Evolution evo(*pool_, cfg);
  const EvolutionResult r = evo.Run(init);
  ASSERT_TRUE(r.has_alpha);
  EXPECT_GT(r.best_fitness, init_ic);
  EXPECT_GT(r.best_fitness, 0.0);
}

TEST_F(EvolutionTest, StatsPartitionCandidates) {
  EvolutionConfig cfg;
  cfg.max_candidates = 500;
  cfg.seed = 4;
  Evolution evo(*pool_, cfg);
  const EvolutionResult r = evo.Run(MakeNoOpAlpha());
  EXPECT_EQ(r.stats.candidates, 500);
  EXPECT_EQ(r.stats.candidates, r.stats.evaluated + r.stats.pruned_redundant +
                                    r.stats.cache_hits);
  EXPECT_GT(r.stats.pruned_redundant, 0);  // no-op children are redundant
}

TEST_F(EvolutionTest, DeterministicGivenSeed) {
  EvolutionConfig cfg;
  cfg.max_candidates = 300;
  cfg.seed = 5;
  Evolution a(*pool_, cfg), b(*pool_, cfg);
  const EvolutionResult ra = a.Run(MakeExpertAlpha(13));
  const EvolutionResult rb = b.Run(MakeExpertAlpha(13));
  ASSERT_EQ(ra.has_alpha, rb.has_alpha);
  EXPECT_EQ(ra.best, rb.best);
  EXPECT_DOUBLE_EQ(ra.best_fitness, rb.best_fitness);
}

TEST_F(EvolutionTest, TrajectoryIsMonotoneNonDecreasing) {
  EvolutionConfig cfg;
  cfg.max_candidates = 600;
  cfg.trajectory_stride = 25;
  cfg.seed = 6;
  Evolution evo(*pool_, cfg);
  const EvolutionResult r = evo.Run(MakeExpertAlpha(13));
  ASSERT_GT(r.trajectory.size(), 3u);
  for (size_t i = 1; i < r.trajectory.size(); ++i) {
    EXPECT_LE(r.trajectory[i - 1].second, r.trajectory[i].second);
    EXPECT_LT(r.trajectory[i - 1].first, r.trajectory[i].first);
  }
}

TEST_F(EvolutionTest, TimeBudgetStopsSearch) {
  EvolutionConfig cfg;
  cfg.max_candidates = 0;  // unbounded count
  cfg.time_budget_seconds = 0.2;
  cfg.seed = 7;
  Evolution evo(*pool_, cfg);
  const auto start = std::chrono::steady_clock::now();
  evo.Run(MakeExpertAlpha(13));
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(secs, 5.0);
}

TEST_F(EvolutionTest, CutoffSuppressesCorrelatedCandidates) {
  // Round 0: mine the best alpha.
  EvolutionConfig cfg;
  cfg.max_candidates = 600;
  cfg.seed = 8;
  WeaklyCorrelatedMiner miner(*pool_, cfg);
  const EvolutionResult r0 = miner.RunSearch(MakeExpertAlpha(13), 8);
  ASSERT_TRUE(r0.has_alpha);
  miner.Accept("round0", r0.best, r0.best_metrics);

  // Round 1 must discard some candidates for correlation and, if it finds
  // an alpha, the accepted-set correlation must respect the cutoff.
  const EvolutionResult r1 = miner.RunSearch(MakeExpertAlpha(13), 9);
  EXPECT_GT(r1.stats.cutoff_discarded, 0);
  if (r1.has_alpha) {
    const double corr = miner.CorrelationWithAccepted(r1.best_metrics);
    EXPECT_LE(std::abs(corr), cfg.correlation_cutoff + 1e-9);
  }
}

TEST_F(EvolutionTest, FunctionalFingerprintModeAlsoSearches) {
  EvolutionConfig cfg;
  cfg.max_candidates = 300;
  cfg.use_pruning = false;  // AutoML-Zero style probe fingerprint
  cfg.seed = 10;
  Evolution evo(*pool_, cfg);
  const EvolutionResult r = evo.Run(MakeExpertAlpha(13));
  EXPECT_EQ(r.stats.pruned_redundant, 0);
  EXPECT_GT(r.stats.cache_hits, 0);
  EXPECT_TRUE(r.has_alpha);
}

TEST_F(EvolutionTest, MinerCorrelationWithAcceptedIsNanWhenEmpty) {
  EvolutionConfig cfg;
  WeaklyCorrelatedMiner miner(*pool_, cfg);
  AlphaMetrics m;
  EXPECT_TRUE(std::isnan(miner.CorrelationWithAccepted(m)));
}

}  // namespace
}  // namespace alphaevolve::core
