#include "ga/genetic.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "eval/portfolio.h"
#include "ga/expr.h"
#include "market/features.h"
#include "test_util.h"

namespace alphaevolve::ga {
namespace {

TEST(GpExprTest, ArityTable) {
  EXPECT_EQ(GpArity(GpOp::kConst), 0);
  EXPECT_EQ(GpArity(GpOp::kFeature), 0);
  EXPECT_EQ(GpArity(GpOp::kNeg), 1);
  EXPECT_EQ(GpArity(GpOp::kAdd), 2);
}

TEST(GpExprTest, EvalArithmetic) {
  // (close - open): feature indices from the market layout.
  GpNode root;
  root.op = GpOp::kSub;
  root.left = std::make_unique<GpNode>();
  root.left->op = GpOp::kFeature;
  root.left->feature = market::kClose;
  root.right = std::make_unique<GpNode>();
  root.right->op = GpOp::kFeature;
  root.right->feature = market::kOpen;

  float features[market::kNumFeatures] = {};
  features[market::kClose] = 1.5f;
  features[market::kOpen] = 0.5f;
  EXPECT_NEAR(root.Eval(features), 1.0, 1e-6);
  EXPECT_EQ(root.ToString(), "sub(close, open)");
}

TEST(GpExprTest, ProtectedOpsNeverProduceNonFinite) {
  Rng rng(3);
  float features[market::kNumFeatures];
  for (int trial = 0; trial < 200; ++trial) {
    const auto tree = RandomTree(rng, market::kNumFeatures, 6, false);
    for (int i = 0; i < market::kNumFeatures; ++i) {
      features[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    const double v = tree->Eval(features);
    // tan can legitimately explode; everything else is protected. Check it
    // is at least not NaN from div/log/inv by zero.
    if (std::isnan(v)) {
      FAIL() << "NaN from " << tree->ToString();
    }
  }
}

TEST(GpExprTest, ProtectedDivByZeroReturnsOne) {
  GpNode root;
  root.op = GpOp::kDiv;
  root.left = std::make_unique<GpNode>();
  root.left->op = GpOp::kConst;
  root.left->value = 5.0;
  root.right = std::make_unique<GpNode>();
  root.right->op = GpOp::kConst;
  root.right->value = 0.0;
  float features[1] = {};
  EXPECT_DOUBLE_EQ(root.Eval(features), 1.0);
}

TEST(GpExprTest, CloneIsDeep) {
  Rng rng(4);
  const auto tree = RandomTree(rng, 13, 5, true);
  auto copy = tree->Clone();
  EXPECT_EQ(tree->ToString(), copy->ToString());
  copy->op = GpOp::kConst;
  copy->value = 9;
  copy->left.reset();
  copy->right.reset();
  EXPECT_NE(tree->ToString(), copy->ToString());
}

TEST(GpExprTest, CountAndNthNodeConsistent) {
  Rng rng(5);
  const auto tree = RandomTree(rng, 13, 6, true);
  const int n = tree->CountNodes();
  ASSERT_GT(n, 1);
  EXPECT_EQ(NthNode(tree.get(), 0), tree.get());
  for (int i = 0; i < n; ++i) {
    EXPECT_NE(NthNode(tree.get(), i), nullptr);
  }
}

TEST(GpExprTest, FullTreesReachExactDepth) {
  Rng rng(6);
  for (int d = 1; d <= 6; ++d) {
    const auto tree = RandomTree(rng, 13, d, /*full=*/true);
    EXPECT_EQ(tree->Depth(), d);
  }
}

TEST(GpExprTest, GrowTreesRespectDepthBound) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const auto tree = RandomTree(rng, 13, 6, /*full=*/false);
    EXPECT_LE(tree->Depth(), 6);
  }
}

class GaSearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new market::Dataset(testutil::MakeDataset(16, 150));
  }
  static void TearDownTestSuite() { delete dataset_; }
  static market::Dataset* dataset_;
};

market::Dataset* GaSearchTest::dataset_ = nullptr;

TEST_F(GaSearchTest, RunProducesValidAlphaWithinBudget) {
  GaConfig cfg;
  cfg.max_candidates = 600;
  cfg.seed = 1;
  GeneticAlgorithm ga(*dataset_, cfg);
  const GaResult r = ga.Run();
  EXPECT_EQ(r.stats.candidates, 600);
  ASSERT_TRUE(r.has_alpha);
  EXPECT_FALSE(r.best_expression.empty());
  EXPECT_TRUE(std::isfinite(r.best_fitness));
  EXPECT_EQ(r.valid_portfolio_returns.size(),
            dataset_->dates(market::Split::kValid).size());
}

TEST_F(GaSearchTest, DeterministicGivenSeed) {
  GaConfig cfg;
  cfg.max_candidates = 400;
  cfg.seed = 2;
  GeneticAlgorithm a(*dataset_, cfg), b(*dataset_, cfg);
  const GaResult ra = a.Run();
  const GaResult rb = b.Run();
  EXPECT_EQ(ra.best_expression, rb.best_expression);
  EXPECT_DOUBLE_EQ(ra.best_fitness, rb.best_fitness);
}

TEST_F(GaSearchTest, SearchBeatsRandomInitPopulationBest) {
  // Fitness of the final population's best should be at least the best of
  // the first (random) generation — GP must not regress.
  GaConfig cfg;
  cfg.max_candidates = 100;  // exactly the init generation
  cfg.seed = 3;
  GeneticAlgorithm init_only(*dataset_, cfg);
  const double init_best = init_only.Run().best_fitness;

  cfg.max_candidates = 1200;
  GeneticAlgorithm full(*dataset_, cfg);
  const double evolved_best = full.Run().best_fitness;
  EXPECT_GE(evolved_best, init_best - 1e-9);
}

TEST_F(GaSearchTest, CutoffDiscardsCorrelatedAlphas) {
  GaConfig cfg;
  cfg.max_candidates = 500;
  cfg.seed = 4;
  GeneticAlgorithm first(*dataset_, cfg);
  const GaResult r0 = first.Run();
  ASSERT_TRUE(r0.has_alpha);

  GeneticAlgorithm second(*dataset_, cfg, {r0.valid_portfolio_returns});
  const GaResult r1 = second.Run();
  EXPECT_GT(r1.stats.cutoff_discarded, 0);
}

TEST_F(GaSearchTest, WinnerBookMatchesADirectBacktest) {
  // The search builds a long-short book only when the cutoff can read it,
  // so Run builds the winner's once. With and without an accepted set it
  // must equal a backtest of the winner's own validation predictions, bit
  // for bit, as the winner's fitness equals their IC. Depth-1 trees keep
  // every individual a single terminal, so the winner's expression names
  // the feature it predicts with; an init-only budget keeps the population
  // diverse, so a book built from any other individual would differ.
  GaConfig cfg;
  cfg.max_candidates = cfg.population_size;
  cfg.seed = 4;
  cfg.init_depth_min = 1;
  cfg.init_depth_max = 1;
  GeneticAlgorithm first(*dataset_, cfg);
  const GaResult r0 = first.Run();
  ASSERT_TRUE(r0.has_alpha);
  GeneticAlgorithm second(*dataset_, cfg, {r0.valid_portfolio_returns});
  const GaResult r1 = second.Run();
  ASSERT_GT(r1.stats.cutoff_discarded, 0);

  const auto& dates = dataset_->dates(market::Split::kValid);
  for (const GaResult* r : {&r0, &r1}) {
    ASSERT_TRUE(r->has_alpha);
    int feature = -1;
    for (int f = 0; f < market::kNumFeatures; ++f) {
      if (r->best_expression == market::FeatureName(f)) feature = f;
    }
    ASSERT_GE(feature, 0) << r->best_expression;
    std::vector<std::vector<double>> preds;
    for (const int date : dates) {
      std::vector<double> row;
      for (int k = 0; k < dataset_->num_tasks(); ++k) {
        row.push_back(dataset_->FeatureRow(k, date)[feature]);
      }
      preds.push_back(std::move(row));
    }
    EXPECT_EQ(testutil::Bits(r->best_fitness),
              testutil::Bits(
                  eval::InformationCoefficient(*dataset_, dates, preds)));
    const std::vector<double> direct =
        eval::RunBacktest(*dataset_, dates, preds, cfg.portfolio,
                          eval::CostConfig{})
            .gross;
    ASSERT_EQ(r->valid_portfolio_returns.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(testutil::Bits(r->valid_portfolio_returns[i]),
                testutil::Bits(direct[i]))
          << "date " << i;
    }
  }
}

TEST_F(GaSearchTest, TrajectoryMonotone) {
  GaConfig cfg;
  cfg.max_candidates = 600;
  cfg.trajectory_stride = 50;
  cfg.seed = 5;
  GeneticAlgorithm ga(*dataset_, cfg);
  const GaResult r = ga.Run();
  ASSERT_GT(r.trajectory.size(), 2u);
  for (size_t i = 1; i < r.trajectory.size(); ++i) {
    EXPECT_LE(r.trajectory[i - 1].second, r.trajectory[i].second);
  }
}

}  // namespace
}  // namespace alphaevolve::ga
