#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "eval/costs.h"
#include "eval/metrics.h"
#include "eval/portfolio.h"
#include "reference_stats.h"
#include "test_util.h"
#include "util/rng.h"

namespace alphaevolve::eval {
namespace {

TEST(PortfolioConfigTest, ResolveTopN) {
  PortfolioConfig cfg;
  EXPECT_EQ(cfg.ResolveTopN(100), 10);   // auto: K/10
  EXPECT_EQ(cfg.ResolveTopN(10), 1);
  cfg.top_n = 50;
  EXPECT_EQ(cfg.ResolveTopN(1026), 50); // paper setting
  EXPECT_EQ(cfg.ResolveTopN(40), 20);   // clamped to half the universe
}

TEST(PortfolioTest, LongShortReturnsHandComputed) {
  // 8 stocks; predictions rank them 0..7; top-2 long, bottom-2 short.
  const auto ds = testutil::MakeDataset(8, 90);
  const auto& dates = ds.dates(market::Split::kValid);
  std::vector<std::vector<double>> preds;
  for (size_t d = 0; d < dates.size(); ++d) {
    std::vector<double> row;
    for (int k = 0; k < 8; ++k) row.push_back(k);  // stock 7 ranked highest
    preds.push_back(row);
  }
  PortfolioConfig cfg;
  cfg.top_n = 2;
  const auto returns = RunBacktest(ds, dates, preds, cfg, CostConfig{}).gross;
  ASSERT_EQ(returns.size(), dates.size());
  for (size_t d = 0; d < dates.size(); ++d) {
    const double expect =
        0.5 * ((ds.Label(7, dates[d]) + ds.Label(6, dates[d])) / 2.0 -
               (ds.Label(0, dates[d]) + ds.Label(1, dates[d])) / 2.0);
    EXPECT_NEAR(returns[d], expect, 1e-12);
  }
}

TEST(PortfolioTest, PerfectForesightBeatsInverted) {
  const auto ds = testutil::MakeDataset(8, 90);
  const auto& dates = ds.dates(market::Split::kValid);
  std::vector<std::vector<double>> oracle, inverted;
  for (int date : dates) {
    std::vector<double> row;
    for (int k = 0; k < ds.num_tasks(); ++k) row.push_back(ds.Label(k, date));
    oracle.push_back(row);
    for (auto& v : row) v = -v;
    inverted.push_back(row);
  }
  PortfolioConfig cfg;
  cfg.top_n = 2;
  const auto r_oracle =
      RunBacktest(ds, dates, oracle, cfg, CostConfig{}).gross;
  const auto r_inv =
      RunBacktest(ds, dates, inverted, cfg, CostConfig{}).gross;
  for (size_t d = 0; d < dates.size(); ++d) {
    EXPECT_GE(r_oracle[d], 0.0);  // oracle long-short can't lose
    EXPECT_DOUBLE_EQ(r_oracle[d], -r_inv[d]);
  }
  EXPECT_GT(SharpeRatio(r_oracle), SharpeRatio(r_inv));
}

/// The long-short book as a stable sort of every prediction builds it: the
/// oracle RunBacktest's selection must reproduce bit for bit (the same
/// names, summed in the same order).
Backtest ReferenceBacktest(const market::Dataset& ds,
                           const std::vector<int>& dates,
                           const std::vector<std::vector<double>>& preds,
                           const PortfolioConfig& config,
                           const CostConfig& costs) {
  const int n = ds.num_tasks();
  const int top_n = config.ResolveTopN(n);
  Backtest bt;
  std::vector<signed char> prev_side(static_cast<size_t>(n), 0);
  for (size_t d = 0; d < dates.size(); ++d) {
    const std::vector<int> order = testutil::ArgSort(preds[d]);
    std::vector<signed char> side(static_cast<size_t>(n), 0);
    double long_ret = 0.0, short_ret = 0.0;
    int entering = 0;
    for (int i = 0; i < top_n; ++i) {
      const int short_task = order[static_cast<size_t>(i)];
      const int long_task = order[static_cast<size_t>(n - 1 - i)];
      short_ret += ds.Label(short_task, dates[d]);
      long_ret += ds.Label(long_task, dates[d]);
      side[static_cast<size_t>(short_task)] = -1;
      side[static_cast<size_t>(long_task)] = 1;
      if (prev_side[static_cast<size_t>(short_task)] != -1) ++entering;
      if (prev_side[static_cast<size_t>(long_task)] != 1) ++entering;
    }
    long_ret /= top_n;
    short_ret /= top_n;
    bt.gross.push_back(0.5 * (long_ret - short_ret));
    bt.turnover.push_back(
        d == 0 ? 0.0 : static_cast<double>(entering) / (2.0 * top_n));
    prev_side = side;
  }
  if (costs.enabled()) bt.net = ApplyCosts(bt.gross, bt.turnover, costs);
  return bt;
}

void ExpectSameBytes(const std::vector<double>& got,
                     const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0);
}

TEST(PortfolioTest, SelectedBookMatchesFullStableSortBitwise) {
  // Random panels; per date a random mix of continuous predictions, a few
  // tied levels with signed zeros, and all-equal rows; every top_n from 1 to
  // n / 2. Gross, turnover and net (costs on) must match the full-sort
  // oracle byte for byte.
  CostConfig costs;
  costs.per_side_bps = 7.0;
  costs.borrow_bps_per_day = 0.5;
  for (const int n : {2, 7, 24, 61}) {
    for (const uint64_t seed : {1ULL, 2ULL}) {
      Rng rng(seed * 1000 + static_cast<uint64_t>(n));
      std::vector<std::vector<double>> closes(static_cast<size_t>(n));
      for (auto& path : closes) {
        double close = 50.0 + 10.0 * rng.Uniform(0.0, 1.0);
        for (int t = 0; t < 90; ++t) {
          path.push_back(close);
          close *= 1.0 + 0.02 * rng.Gaussian();
        }
      }
      const market::Dataset ds = market::Dataset::Build(
          testutil::MakePanel(
              n, 90,
              [&](int k, int t) {
                return closes[static_cast<size_t>(k)][static_cast<size_t>(t)];
              },
              [](int k) { return k % 3; }),
          market::DatasetConfig{});
      const auto& dates = ds.dates(market::Split::kValid);
      std::vector<std::vector<double>> preds;
      for (size_t d = 0; d < dates.size(); ++d) {
        std::vector<double> row(static_cast<size_t>(n));
        const int style = rng.UniformInt(4);
        for (double& v : row) {
          if (style == 0) {
            v = rng.Gaussian();
          } else if (style == 1) {
            // Three levels: -1, a signed zero, +1.
            const int level = rng.UniformInt(3) - 1;
            v = level != 0 ? level : (rng.Bernoulli(0.5) ? -0.0 : 0.0);
          } else if (style == 2) {
            v = 0.25;
          } else {
            v = rng.Bernoulli(0.3) ? rng.Gaussian() : -0.0;
          }
        }
        preds.push_back(std::move(row));
      }
      for (int top_n = 1; top_n <= n / 2; ++top_n) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " seed=" << seed
                                          << " top_n=" << top_n);
        PortfolioConfig cfg;
        cfg.top_n = top_n;
        const Backtest got = RunBacktest(ds, dates, preds, cfg, costs);
        const Backtest want = ReferenceBacktest(ds, dates, preds, cfg, costs);
        ExpectSameBytes(got.gross, want.gross);
        ExpectSameBytes(got.turnover, want.turnover);
        ExpectSameBytes(got.net, want.net);
        ASSERT_EQ(got.net.size(), dates.size());
      }
    }
  }
}

TEST(PortfolioTest, NanPredictionsRankAboveEveryNumber) {
  // The executor never passes a non-finite prediction on, but other callers
  // may: a NaN ranks above every number, in task order, so the book stays
  // well defined.
  const auto ds = testutil::MakeDataset(8, 90);
  const auto& dates = ds.dates(market::Split::kValid);
  const double nan = std::nan("");
  std::vector<std::vector<double>> preds(
      dates.size(), {0.5, nan, -1.0, 2.0, nan, 0.0, 1.0, -2.0});
  PortfolioConfig cfg;
  cfg.top_n = 2;
  const auto returns = RunBacktest(ds, dates, preds, cfg, CostConfig{}).gross;
  for (size_t d = 0; d < dates.size(); ++d) {
    const int date = dates[d];
    const double longs = ds.Label(4, date) + ds.Label(1, date);
    const double shorts = ds.Label(7, date) + ds.Label(2, date);
    EXPECT_EQ(testutil::Bits(returns[d]),
              testutil::Bits(0.5 * (longs / 2.0 - shorts / 2.0)));
  }
}

TEST(PortfolioTest, NavPathCompounds) {
  const auto nav = NavPath({0.1, -0.05, 0.2});
  ASSERT_EQ(nav.size(), 4u);
  EXPECT_DOUBLE_EQ(nav[0], 1.0);
  EXPECT_DOUBLE_EQ(nav[1], 1.1);
  EXPECT_NEAR(nav[2], 1.1 * 0.95, 1e-12);
  EXPECT_NEAR(nav[3], 1.1 * 0.95 * 1.2, 1e-12);
}

TEST(MetricsTest, SharpeOfConstantPositiveReturnsIsZeroVol) {
  // Zero volatility → convention: 0.
  EXPECT_DOUBLE_EQ(SharpeRatio({0.01, 0.01, 0.01}), 0.0);
  EXPECT_DOUBLE_EQ(SharpeRatio({}), 0.0);
  EXPECT_DOUBLE_EQ(SharpeRatio({0.01}), 0.0);
}

TEST(MetricsTest, SharpeKnownSeries) {
  // mean = 0.01, sample std = 0.01 → SR = 1 * sqrt(252).
  const std::vector<double> r{0.0, 0.01, 0.02};
  EXPECT_NEAR(SharpeRatio(r), std::sqrt(252.0), 1e-9);
}

TEST(MetricsTest, SharpeSignFollowsMean) {
  EXPECT_LT(SharpeRatio({-0.01, -0.02, 0.001}), 0.0);
  EXPECT_GT(SharpeRatio({0.01, 0.02, -0.001}), 0.0);
}

TEST(MetricsTest, InformationCoefficientOracleIsOne) {
  const auto ds = testutil::MakeDataset(8, 90);
  const auto& dates = ds.dates(market::Split::kValid);
  std::vector<std::vector<double>> oracle;
  for (int date : dates) {
    std::vector<double> row;
    for (int k = 0; k < ds.num_tasks(); ++k) row.push_back(ds.Label(k, date));
    oracle.push_back(row);
  }
  EXPECT_NEAR(InformationCoefficient(ds, dates, oracle), 1.0, 1e-12);
}

TEST(MetricsTest, InformationCoefficientConstantPredictionIsZero) {
  const auto ds = testutil::MakeDataset(8, 90);
  const auto& dates = ds.dates(market::Split::kValid);
  std::vector<std::vector<double>> preds(
      dates.size(), std::vector<double>(static_cast<size_t>(ds.num_tasks()),
                                        3.14));
  EXPECT_DOUBLE_EQ(InformationCoefficient(ds, dates, preds), 0.0);
}

TEST(MetricsTest, InformationCoefficientMatchesHandDerivedDates) {
  // Each stock's close alternates between 64 on even days and 64 (1 + r_k)
  // on odd days, so its label (next-day return) on every even day is
  // exactly r_k. Four even dates, one prediction shape each.
  const std::vector<double> r = {0.25, -0.125, 0.5, 0.0625, -0.25, 0.125};
  const int n = static_cast<int>(r.size());
  const auto ds = market::Dataset::Build(
      testutil::MakePanel(
          n, 90,
          [&](int k, int t) { return t % 2 == 0 ? 64.0 : 64.0 * (1 + r[k]); },
          [](int k) { return k % 2; }),
      market::DatasetConfig{});
  ASSERT_EQ(ds.num_tasks(), n);
  std::vector<int> dates;
  for (int date : ds.dates(market::Split::kTrain)) {
    if (date % 2 == 0 && dates.size() < 4) dates.push_back(date);
  }
  ASSERT_EQ(dates.size(), 4u);
  for (int date : dates) {
    for (int k = 0; k < n; ++k) ASSERT_EQ(ds.Label(k, date), r[k]);
  }

  // Date 0 predicts the label (IC 1), date 1 its negation (-1), date 2 a
  // constant (0), and date 3 the two-level prediction 1 for stocks
  // {0, 2, 5} and -2 for {1, 3, 4}.
  std::vector<double> negated;
  for (double v : r) negated.push_back(-v);
  const std::vector<std::vector<double>> preds = {
      r, negated, std::vector<double>(r.size(), 0.5),
      {1.0, -2.0, 1.0, -2.0, -2.0, 1.0}};
  // A two-level prediction correlates with the label as the point-biserial
  // r = (mean_high - mean_low) sqrt(n_high n_low) / (n sigma), with sigma
  // the labels' population standard deviation.
  const double mean_high = (r[0] + r[2] + r[5]) / 3;
  const double mean_low = (r[1] + r[3] + r[4]) / 3;
  double mean = 0.0;
  for (double v : r) mean += v / n;
  double var = 0.0;
  for (double v : r) var += (v - mean) * (v - mean) / n;
  const double point_biserial =
      (mean_high - mean_low) * std::sqrt(3.0 * 3.0) / (n * std::sqrt(var));
  EXPECT_NEAR(InformationCoefficient(ds, dates, preds),
              (1.0 - 1.0 + 0.0 + point_biserial) / 4, 1e-12);
}

TEST(MetricsTest, CorrelationCutoffIsStrictAtItsBoundary) {
  // Over zero-mean, orthogonal x and y of equal norm, the series
  // rho x + sqrt(1 - rho^2) y correlates with x at exactly rho (up to
  // rounding, far below the 1e-9 margins used here).
  const std::vector<double> x = {1, -1, 1, -1, 1, -1, 1, -1};
  const std::vector<double> y = {1, 1, -1, -1, 1, 1, -1, -1};
  const auto with_corr = [&](double rho) {
    std::vector<double> out;
    for (size_t i = 0; i < x.size(); ++i) {
      out.push_back(rho * x[i] + std::sqrt(1 - rho * rho) * y[i]);
    }
    EXPECT_NEAR(PortfolioCorrelation(x, out), rho, 1e-12);
    return out;
  };
  const double cutoff = 0.15;
  const std::vector<double> under = with_corr(cutoff - 1e-9);
  const std::vector<double> over = with_corr(cutoff + 1e-9);
  const std::vector<double> negative = with_corr(-cutoff - 1e-9);
  EXPECT_FALSE(BreaksCorrelationCutoff(x, {under}, cutoff));
  EXPECT_TRUE(BreaksCorrelationCutoff(x, {over}, cutoff));
  EXPECT_TRUE(BreaksCorrelationCutoff(x, {negative}, cutoff));
  // One breach anywhere in the accepted set discards; none keeps.
  EXPECT_TRUE(BreaksCorrelationCutoff(x, {under, under, negative}, cutoff));
  EXPECT_FALSE(BreaksCorrelationCutoff(x, {under, under}, cutoff));
  EXPECT_FALSE(BreaksCorrelationCutoff(x, {}, cutoff));
}

TEST(MetricsTest, PortfolioCorrelationMatchesPearson) {
  const std::vector<double> a{0.01, -0.02, 0.03, 0.0};
  const std::vector<double> b{0.02, -0.04, 0.06, 0.0};
  EXPECT_NEAR(PortfolioCorrelation(a, b), 1.0, 1e-12);
  std::vector<double> c;
  for (double v : a) c.push_back(-v);
  EXPECT_NEAR(PortfolioCorrelation(a, c), -1.0, 1e-12);
}

}  // namespace
}  // namespace alphaevolve::eval
