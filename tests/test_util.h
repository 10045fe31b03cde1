#ifndef ALPHAEVOLVE_TESTS_TEST_UTIL_H_
#define ALPHAEVOLVE_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "market/dataset.h"
#include "market/types.h"

namespace alphaevolve::testutil {

/// Hand-built panel: `close_fn(stock, day)` defines the close path; OHLC are
/// derived deterministically and volume is constant. `sector_of(stock)`
/// controls the relational structure (industry == sector here).
inline std::vector<market::StockSeries> MakePanel(
    int num_stocks, int num_days,
    const std::function<double(int, int)>& close_fn,
    const std::function<int(int)>& sector_of) {
  std::vector<market::StockSeries> panel;
  for (int k = 0; k < num_stocks; ++k) {
    market::StockSeries s;
    s.meta.id = k;
    s.meta.symbol = "T" + std::to_string(k);
    s.meta.sector = sector_of(k);
    s.meta.industry = sector_of(k);
    for (int t = 0; t < num_days; ++t) {
      market::OhlcvBar bar;
      bar.close = close_fn(k, t);
      bar.open = bar.close * 0.99;
      bar.high = bar.close * 1.02;
      bar.low = bar.close * 0.97;
      bar.volume = 1000.0;
      s.bars.push_back(bar);
    }
    panel.push_back(std::move(s));
  }
  return panel;
}

/// Small deterministic dataset: gently drifting sinusoid paths, two sectors.
inline market::Dataset MakeDataset(int num_stocks = 8, int num_days = 90) {
  auto close = [](int k, int t) {
    return 50.0 + 5.0 * std::sin(0.21 * t + 0.8 * k) + 0.05 * t + 2.0 * k;
  };
  auto sector = [num_stocks](int k) { return k < num_stocks / 2 ? 0 : 1; };
  return market::Dataset::Build(MakePanel(num_stocks, num_days, close, sector),
                                market::DatasetConfig{});
}

/// The bit pattern of `v`: parity checks compare doubles exactly, NaN too.
inline uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

inline std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> out;
  out.reserve(values.size());
  for (const double v : values) out.push_back(Bits(v));
  return out;
}

/// Bitwise equality of two evaluations: validity, IC, gross and net Sharpe,
/// turnover and the portfolio return series, valid and test side.
inline void ExpectSameMetrics(const core::AlphaMetrics& a,
                              const core::AlphaMetrics& b) {
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(Bits(a.ic_valid), Bits(b.ic_valid));
  EXPECT_EQ(Bits(a.ic_test), Bits(b.ic_test));
  EXPECT_EQ(Bits(a.sharpe_valid), Bits(b.sharpe_valid));
  EXPECT_EQ(Bits(a.sharpe_test), Bits(b.sharpe_test));
  EXPECT_EQ(Bits(a.sharpe_valid_net), Bits(b.sharpe_valid_net));
  EXPECT_EQ(Bits(a.sharpe_test_net), Bits(b.sharpe_test_net));
  EXPECT_EQ(Bits(a.mean_turnover_valid), Bits(b.mean_turnover_valid));
  EXPECT_EQ(Bits(a.mean_turnover_test), Bits(b.mean_turnover_test));
  EXPECT_EQ(Bits(a.valid_portfolio_returns), Bits(b.valid_portfolio_returns));
  EXPECT_EQ(Bits(a.test_portfolio_returns), Bits(b.test_portfolio_returns));
}

/// Bitwise equality of two datasets through the public API: structure,
/// splits, source ids, labels, closes and feature rows over every split date.
inline void ExpectDatasetsIdentical(const market::Dataset& a,
                                    const market::Dataset& b) {
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  ASSERT_EQ(a.num_days(), b.num_days());
  ASSERT_EQ(a.first_usable_date(), b.first_usable_date());
  for (market::Split split :
       {market::Split::kTrain, market::Split::kValid, market::Split::kTest}) {
    ASSERT_EQ(a.dates(split), b.dates(split));
  }
  for (int k = 0; k < a.num_tasks(); ++k) {
    ASSERT_EQ(a.sector_of(k), b.sector_of(k));
    ASSERT_EQ(a.industry_of(k), b.industry_of(k));
    ASSERT_EQ(a.source_id(k), b.source_id(k));
    for (market::Split split : {market::Split::kTrain, market::Split::kValid,
                                market::Split::kTest}) {
      for (int date : a.dates(split)) {
        ASSERT_EQ(a.Label(k, date), b.Label(k, date));
        ASSERT_EQ(a.Close(k, date), b.Close(k, date));
        const float* fa = a.FeatureRow(k, date);
        const float* fb = b.FeatureRow(k, date);
        for (int f = 0; f < a.num_features(); ++f) ASSERT_EQ(fa[f], fb[f]);
      }
    }
  }
}

}  // namespace alphaevolve::testutil

#endif  // ALPHAEVOLVE_TESTS_TEST_UTIL_H_
