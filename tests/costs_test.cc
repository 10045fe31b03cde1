#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/generators.h"
#include "eval/costs.h"
#include "eval/portfolio.h"
#include "test_util.h"

namespace alphaevolve::eval {
namespace {

/// Predictions over the valid split built from `rank_fn(stock, day index)`:
/// higher value = ranked higher (longed first).
std::vector<std::vector<double>> MakePredictions(
    const market::Dataset& ds, const std::vector<int>& dates,
    const std::function<double(int, size_t)>& rank_fn) {
  std::vector<std::vector<double>> preds;
  for (size_t d = 0; d < dates.size(); ++d) {
    std::vector<double> row;
    for (int k = 0; k < ds.num_tasks(); ++k) row.push_back(rank_fn(k, d));
    preds.push_back(std::move(row));
  }
  return preds;
}

TEST(CostsTest, ZeroCostBacktestLeavesNetEmpty) {
  const auto ds = testutil::MakeDataset(8, 90);
  const auto& dates = ds.dates(market::Split::kValid);
  // A churning-but-arbitrary ranking so the book really trades.
  const auto preds = MakePredictions(ds, dates, [](int k, size_t d) {
    return std::sin(0.7 * k + 1.3 * static_cast<double>(d));
  });
  PortfolioConfig cfg;
  cfg.top_n = 2;
  const Backtest bt = RunBacktest(ds, dates, preds, cfg, CostConfig{});
  EXPECT_EQ(bt.gross.size(), dates.size());
  EXPECT_EQ(bt.turnover.size(), dates.size());
  // Zero cost: net would equal gross bit for bit, so it is left empty.
  EXPECT_TRUE(bt.net.empty());
}

TEST(CostsTest, ConstantMembershipHasZeroTurnover) {
  const auto ds = testutil::MakeDataset(8, 90);
  const auto& dates = ds.dates(market::Split::kValid);
  // Fixed ranking every day: the book never trades after establishment.
  const auto preds =
      MakePredictions(ds, dates, [](int k, size_t) { return k; });
  PortfolioConfig cfg;
  cfg.top_n = 2;
  CostConfig costs;
  costs.per_side_bps = 25.0;
  const Backtest bt = RunBacktest(ds, dates, preds, cfg, costs);
  for (size_t d = 0; d < bt.turnover.size(); ++d) {
    EXPECT_EQ(bt.turnover[d], 0.0);
    EXPECT_EQ(bt.net[d], bt.gross[d]);  // zero turnover: costs charge nothing
  }
}

TEST(CostsTest, FullRotationPaysTwoBpsPerSidePerDay) {
  const auto ds = testutil::MakeDataset(8, 90);
  const auto& dates = ds.dates(market::Split::kValid);
  // Alternating ranking: every day the longs and shorts swap wholesale, so
  // both sides replace their entire book (turnover == 1).
  const auto preds = MakePredictions(ds, dates, [](int k, size_t d) {
    return d % 2 == 0 ? static_cast<double>(k) : static_cast<double>(-k);
  });
  PortfolioConfig cfg;
  cfg.top_n = 2;
  CostConfig costs;
  costs.per_side_bps = 10.0;
  const Backtest bt = RunBacktest(ds, dates, preds, cfg, costs);
  ASSERT_GE(bt.turnover.size(), 2u);
  EXPECT_EQ(bt.turnover[0], 0.0);  // establishment is free
  EXPECT_EQ(bt.net[0], bt.gross[0]);
  // Each side turns over its 0.5 book twice (sell + buy): traded notional
  // is 2x gross capital, so the daily cost is 2 * 10bps = 20bps.
  const double expected_cost = 2.0 * 10.0 * 1e-4;
  for (size_t d = 1; d < bt.turnover.size(); ++d) {
    EXPECT_EQ(bt.turnover[d], 1.0);
    EXPECT_NEAR(bt.gross[d] - bt.net[d], expected_cost, 1e-15);
  }
}

TEST(CostsTest, ApplyCostsZeroConfigReturnsGrossUnchanged) {
  const std::vector<double> gross{0.01, -0.02, 0.003};
  const std::vector<double> turnover{0.0, 0.5, 1.0};
  const auto net = ApplyCosts(gross, turnover, CostConfig{});
  EXPECT_EQ(net, gross);
}

TEST(CostsTest, ApplyCostsChargesProportionallyToTurnover) {
  const std::vector<double> gross{0.01, 0.01, 0.01};
  const std::vector<double> turnover{0.0, 0.5, 1.0};
  CostConfig costs;
  costs.per_side_bps = 10.0;
  const auto net = ApplyCosts(gross, turnover, costs);
  EXPECT_EQ(net[0], 0.01);
  EXPECT_NEAR(net[1], 0.01 - 0.5 * 2.0 * 10.0 * 1e-4, 1e-15);
  EXPECT_NEAR(net[2], 0.01 - 2.0 * 10.0 * 1e-4, 1e-15);
}

TEST(CostsTest, BorrowChargesEveryDayIndependentOfTurnover) {
  // Financing the short book accrues daily on the 0.5 short notional even
  // when the book never trades — including establishment day, which is free
  // of transaction costs but not of carry.
  const std::vector<double> gross{0.01, 0.01, 0.01};
  const std::vector<double> turnover{0.0, 0.0, 1.0};
  CostConfig costs;
  costs.borrow_bps_per_day = 30.0;
  const auto net = ApplyCosts(gross, turnover, costs);
  const double carry = 0.5 * 30.0 * 1e-4;
  EXPECT_NEAR(gross[0] - net[0], carry, 1e-15);  // day 0 pays carry
  EXPECT_NEAR(gross[1] - net[1], carry, 1e-15);  // zero turnover still pays
  EXPECT_NEAR(gross[2] - net[2], carry, 1e-15);  // turnover priced separately
  EXPECT_EQ(gross[2] - net[2], gross[1] - net[1]);  // carry is flat
}

TEST(CostsTest, EnabledCoversBothTerms) {
  EXPECT_FALSE(CostConfig{}.enabled());
  CostConfig a;
  a.per_side_bps = 1.0;
  EXPECT_TRUE(a.enabled());
  CostConfig c;
  c.borrow_bps_per_day = 1.0;
  EXPECT_TRUE(c.enabled());
}

TEST(CostsTest, BorrowOnlyConfigDragsNetBelowGrossInBacktest) {
  const auto ds = testutil::MakeDataset(8, 90);
  const auto& dates = ds.dates(market::Split::kValid);
  // Static book: zero turnover isolates the carry term end to end.
  const auto preds =
      MakePredictions(ds, dates, [](int k, size_t) { return k; });
  PortfolioConfig cfg;
  cfg.top_n = 2;
  CostConfig costs;
  costs.borrow_bps_per_day = 20.0;
  const Backtest bt = RunBacktest(ds, dates, preds, cfg, costs);
  const double carry = 0.5 * 20.0 * 1e-4;
  for (size_t d = 0; d < bt.net.size(); ++d) {
    EXPECT_EQ(bt.turnover[d], 0.0);
    EXPECT_NEAR(bt.gross[d] - bt.net[d], carry, 1e-15);
  }

  // Through the evaluator: net sharpe strictly below gross even with an
  // untraded book, because carry accrues regardless.
  const auto prog = core::MakeExpertAlpha(ds.window());
  core::EvaluatorConfig eval_cfg;
  eval_cfg.costs.borrow_bps_per_day = 20.0;
  core::Evaluator evaluator(ds, eval_cfg);
  const core::AlphaMetrics m = evaluator.Evaluate(prog, 1);
  ASSERT_TRUE(m.valid);
  EXPECT_LT(m.sharpe_valid_net, m.sharpe_valid);
}

TEST(CostsTest, EvaluatorThreadsCostsThroughMetrics) {
  const auto ds = testutil::MakeDataset(8, 90);
  const auto prog = core::MakeExpertAlpha(ds.window());

  core::EvaluatorConfig free_cfg;  // costs disabled
  core::Evaluator free_eval(ds, free_cfg);
  const core::AlphaMetrics free_m = free_eval.Evaluate(prog, 1);
  ASSERT_TRUE(free_m.valid);
  EXPECT_EQ(free_m.sharpe_valid_net, free_m.sharpe_valid);
  EXPECT_EQ(free_m.sharpe_test_net, free_m.sharpe_test);

  core::EvaluatorConfig cost_cfg;
  cost_cfg.costs.per_side_bps = 50.0;
  core::Evaluator cost_eval(ds, cost_cfg);
  const core::AlphaMetrics cost_m = cost_eval.Evaluate(prog, 1);
  ASSERT_TRUE(cost_m.valid);
  // Gross numbers are independent of the cost model...
  EXPECT_EQ(cost_m.sharpe_valid, free_m.sharpe_valid);
  EXPECT_EQ(cost_m.ic_valid, free_m.ic_valid);
  EXPECT_EQ(cost_m.mean_turnover_valid, free_m.mean_turnover_valid);
  // ...and a churning alpha scores strictly worse net of costs.
  if (cost_m.mean_turnover_valid > 0.0) {
    EXPECT_LT(cost_m.sharpe_valid_net, cost_m.sharpe_valid);
  }
}

}  // namespace
}  // namespace alphaevolve::eval
