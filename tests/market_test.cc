#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "market/dataset.h"
#include "market/features.h"
#include "market/simulator.h"
#include "market/universe.h"
#include "test_util.h"
#include "util/check.h"
#include "util/stats.h"

namespace alphaevolve::market {
namespace {

MarketConfig SmallConfig() {
  MarketConfig mc;
  mc.num_stocks = 30;
  mc.num_days = 120;
  mc.num_sectors = 4;
  mc.industries_per_sector = 2;
  mc.seed = 5;
  return mc;
}

TEST(UniverseTest, AssignsEveryStockToSectorAndIndustry) {
  MarketConfig mc = SmallConfig();
  Rng rng(1);
  const Universe u = Universe::Generate(mc, rng);
  EXPECT_EQ(u.num_stocks(), 30);
  EXPECT_EQ(u.num_sectors(), 4);
  EXPECT_EQ(u.num_industries(), 8);
  int total = 0;
  for (int s = 0; s < u.num_sectors(); ++s) {
    total += static_cast<int>(u.SectorMembers(s).size());
  }
  EXPECT_EQ(total, 30);
}

TEST(UniverseTest, IndustryNestsInsideSector) {
  MarketConfig mc = SmallConfig();
  Rng rng(1);
  const Universe u = Universe::Generate(mc, rng);
  for (const auto& stock : u.stocks()) {
    EXPECT_EQ(stock.industry / mc.industries_per_sector, stock.sector);
  }
}

TEST(UniverseTest, MembershipListsAreConsistent) {
  MarketConfig mc = SmallConfig();
  Rng rng(2);
  const Universe u = Universe::Generate(mc, rng);
  for (int ind = 0; ind < u.num_industries(); ++ind) {
    for (int id : u.IndustryMembers(ind)) {
      EXPECT_EQ(u.stock(id).industry, ind);
    }
  }
}

TEST(SimulatorTest, DeterministicGivenSeed) {
  MarketConfig mc = SmallConfig();
  Rng rng1(mc.seed), rng2(mc.seed);
  const Universe u1 = Universe::Generate(mc, rng1);
  const Universe u2 = Universe::Generate(mc, rng2);
  const auto p1 = MarketSimulator::Simulate(mc, u1, rng1);
  const auto p2 = MarketSimulator::Simulate(mc, u2, rng2);
  ASSERT_EQ(p1.size(), p2.size());
  for (size_t k = 0; k < p1.size(); ++k) {
    ASSERT_EQ(p1[k].bars.size(), p2[k].bars.size());
    for (size_t t = 0; t < p1[k].bars.size(); ++t) {
      EXPECT_DOUBLE_EQ(p1[k].bars[t].close, p2[k].bars[t].close);
    }
  }
}

TEST(SimulatorTest, OhlcInvariantsHold) {
  MarketConfig mc = SmallConfig();
  Rng rng(mc.seed);
  const Universe u = Universe::Generate(mc, rng);
  const auto panel = MarketSimulator::Simulate(mc, u, rng);
  for (const auto& s : panel) {
    for (const auto& bar : s.bars) {
      EXPECT_GT(bar.low, 0.0);
      EXPECT_LE(bar.low, std::min(bar.open, bar.close));
      EXPECT_GE(bar.high, std::max(bar.open, bar.close));
      EXPECT_GT(bar.volume, 0.0);
      EXPECT_TRUE(std::isfinite(bar.close));
    }
  }
}

TEST(SimulatorTest, SomeStocksDelistAndSomeArePenny) {
  MarketConfig mc = SmallConfig();
  mc.num_stocks = 200;
  mc.delist_fraction = 0.2;
  mc.penny_fraction = 0.2;
  Rng rng(9);
  const Universe u = Universe::Generate(mc, rng);
  const auto panel = MarketSimulator::Simulate(mc, u, rng);
  int delisted = 0, penny = 0;
  for (const auto& s : panel) {
    if (static_cast<int>(s.bars.size()) < mc.num_days) ++delisted;
    if (!s.bars.empty() && s.bars[0].close < 1.0) ++penny;
  }
  EXPECT_GT(delisted, 10);
  EXPECT_GT(penny, 10);
}

TEST(FeaturesTest, MovingAverageMatchesHandComputation) {
  StockSeries s;
  s.meta.symbol = "TEST";
  // Closes 1..40; trivial OHLC/volume.
  for (int t = 1; t <= 40; ++t) {
    OhlcvBar bar;
    bar.open = bar.high = bar.low = bar.close = t;
    bar.volume = 100;
    s.bars.push_back(bar);
  }
  const auto f = BuildFeatureSeries(s);
  // Day 29 (0-based): closes 25..30 → MA5 = 28; normalization by max MA5
  // over valid days (MA5 at day 39 = 38).
  const double ma5_day29 = f[29 * kNumFeatures + kMa5];
  EXPECT_NEAR(ma5_day29, 28.0 / 38.0, 1e-5);
  // MA30 at day 29 = mean(1..30) = 15.5; max at day 39 = 25.5.
  EXPECT_NEAR(f[29 * kNumFeatures + kMa30], 15.5 / 25.5, 1e-5);
}

TEST(FeaturesTest, VolatilityOfLinearRampIsConstant) {
  StockSeries s;
  s.meta.symbol = "TEST";
  for (int t = 1; t <= 40; ++t) {
    OhlcvBar bar;
    bar.open = bar.high = bar.low = bar.close = t;
    bar.volume = 1;
    s.bars.push_back(bar);
  }
  const auto f = BuildFeatureSeries(s);
  // Sample std of any 5 consecutive integers = sqrt(2.5); same at all days,
  // so the normalized value is 1 everywhere.
  for (int t = kFeatureWarmup - 1; t < 40; ++t) {
    EXPECT_NEAR(f[t * kNumFeatures + kVol5], 1.0, 1e-5);
  }
}

TEST(FeaturesTest, WarmupDaysAreZero) {
  StockSeries s;
  s.meta.symbol = "TEST";
  for (int t = 1; t <= 35; ++t) {
    OhlcvBar bar;
    bar.open = bar.high = bar.low = bar.close = t;
    bar.volume = 1;
    s.bars.push_back(bar);
  }
  const auto f = BuildFeatureSeries(s);
  for (int t = 0; t < kFeatureWarmup - 1; ++t) {
    for (int j = 0; j < kNumFeatures; ++j) {
      EXPECT_EQ(f[t * kNumFeatures + j], 0.0f);
    }
  }
}

TEST(FeaturesTest, NormalizationBoundsValuesByOne) {
  MarketConfig mc = SmallConfig();
  Rng rng(mc.seed);
  const Universe u = Universe::Generate(mc, rng);
  const auto panel = MarketSimulator::Simulate(mc, u, rng);
  const auto f = BuildFeatureSeries(panel[0]);
  for (float v : f) {
    EXPECT_LE(std::abs(v), 1.0f + 1e-6f);
  }
}

TEST(DatasetTest, FiltersRemoveDelistedAndPennyStocks) {
  MarketConfig mc = SmallConfig();
  mc.num_stocks = 100;
  mc.delist_fraction = 0.3;
  mc.penny_fraction = 0.3;
  const Dataset ds = Dataset::Simulate(mc, DatasetConfig{});
  EXPECT_LT(ds.num_tasks(), 100);
  EXPECT_GT(ds.num_tasks(), 10);
  // Every surviving task trades above the price floor on every date.
  for (int k = 0; k < ds.num_tasks(); ++k) {
    for (int t = 0; t < ds.num_days(); ++t) {
      EXPECT_GE(ds.Close(k, t), 1.0);
    }
  }
}

TEST(DatasetTest, RejectsInvalidSplitFractions) {
  const MarketConfig mc = SmallConfig();
  // train + valid must leave room for a test split...
  DatasetConfig overfull;
  overfull.train_fraction = 0.9;
  overfull.valid_fraction = 0.2;
  EXPECT_THROW(Dataset::Simulate(mc, overfull), CheckError);
  DatasetConfig no_test;
  no_test.train_fraction = 0.9;
  no_test.valid_fraction = 0.1;  // exactly 1.0: still no test days
  EXPECT_THROW(Dataset::Simulate(mc, no_test), CheckError);
  // ...and both fractions must be positive.
  DatasetConfig zero_valid;
  zero_valid.valid_fraction = 0.0;
  EXPECT_THROW(Dataset::Simulate(mc, zero_valid), CheckError);
  DatasetConfig negative_train;
  negative_train.train_fraction = -0.1;
  EXPECT_THROW(Dataset::Simulate(mc, negative_train), CheckError);
}

TEST(DatasetTest, SplitsAreChronologicalAndDisjoint) {
  const Dataset ds = Dataset::Simulate(SmallConfig(), DatasetConfig{});
  const auto& tr = ds.dates(Split::kTrain);
  const auto& va = ds.dates(Split::kValid);
  const auto& te = ds.dates(Split::kTest);
  ASSERT_FALSE(tr.empty());
  ASSERT_FALSE(va.empty());
  ASSERT_FALSE(te.empty());
  EXPECT_LT(tr.back(), va.front());
  EXPECT_LT(va.back(), te.front());
  for (size_t i = 1; i < tr.size(); ++i) EXPECT_EQ(tr[i], tr[i - 1] + 1);
  // ~81% / 9.5% / 9.5% split of usable days.
  const double total = static_cast<double>(tr.size() + va.size() + te.size());
  EXPECT_NEAR(tr.size() / total, 0.81, 0.03);
}

TEST(DatasetTest, LabelIsNextDayReturn) {
  const Dataset ds = Dataset::Simulate(SmallConfig(), DatasetConfig{});
  const int k = 0;
  const int t = ds.dates(Split::kTrain)[3];
  const double expect = (ds.Close(k, t + 1) - ds.Close(k, t)) / ds.Close(k, t);
  EXPECT_NEAR(ds.Label(k, t), expect, 1e-12);
}

TEST(DatasetTest, FillInputMatrixLaysOutFeatureRowsAndDayColumns) {
  const Dataset ds = Dataset::Simulate(SmallConfig(), DatasetConfig{});
  const int w = ds.window();
  const int t = ds.dates(Split::kValid)[0];
  std::vector<double> x(static_cast<size_t>(kNumFeatures) * w);
  ds.FillInputMatrix(0, t, x.data());
  for (int j = 0; j < w; ++j) {
    const float* col = ds.FeatureRow(0, t - w + 1 + j);
    for (int f = 0; f < kNumFeatures; ++f) {
      EXPECT_DOUBLE_EQ(x[static_cast<size_t>(f) * w + j],
                       static_cast<double>(col[f]));
    }
  }
}

/// A hand-built panel whose filters drop two of its 12 stocks: stock 3 is
/// delisted early (filter 1) and stock 8 trades below min_price once
/// (filter 2), so surviving rows no longer match panel ids.
Dataset FilteredPanel() {
  auto close = [](int k, int t) {
    if (k == 8 && t == 50) return 0.5;
    return 20.0 + 3.0 * std::sin(0.17 * t + 0.9 * k) + 0.04 * t + k;
  };
  auto panel = testutil::MakePanel(12, 90, close,
                                   [](int k) { return k % 3; });
  panel[3].bars.resize(70);
  return Dataset::Build(panel, DatasetConfig{});
}

/// Scales and shifts the base label by source id and date, so a read that
/// skips the overlay, or applies it to the wrong stock, shows.
double TestOverlay(const void*, int source_id, int date, double base) {
  return 2.0 * base + 1e-3 * source_id - 1e-5 * date;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The date-major layout contract, checked on one view: consecutive days of
/// a task are one day_stride apart, FillInputMatrix gathers through
/// FeatureRow, and StorageBytes is exactly the tape plus the source map.
void ExpectTapeLayout(const Dataset& ds, int storage_rows) {
  ASSERT_EQ(ds.day_stride(), static_cast<size_t>(storage_rows) * kNumFeatures);
  const size_t cells =
      static_cast<size_t>(storage_rows) * static_cast<size_t>(ds.num_days());
  EXPECT_EQ(ds.StorageBytes(),
            cells * (kNumFeatures * sizeof(float) + 2 * sizeof(double)) +
                static_cast<size_t>(storage_rows) * sizeof(int));
  const int w = ds.window();
  std::vector<double> x(static_cast<size_t>(kNumFeatures) * w);
  for (int k = 0; k < ds.num_tasks(); ++k) {
    for (int d = 0; d + 1 < ds.num_days(); ++d) {
      ASSERT_EQ(ds.FeatureRow(k, d + 1), ds.FeatureRow(k, d) + ds.day_stride());
    }
    for (const int date : ds.dates(Split::kValid)) {
      ds.FillInputMatrix(k, date, x.data());
      for (int j = 0; j < w; ++j) {
        const float* col = ds.FeatureRow(k, date - w + 1 + j);
        for (int f = 0; f < kNumFeatures; ++f) {
          ASSERT_TRUE(SameBits(x[static_cast<size_t>(f) * w + j],
                               static_cast<double>(col[f])));
        }
      }
    }
  }
}

TEST(DatasetTest, DateMajorTapeLayoutHoldsOnEveryView) {
  const Dataset base = FilteredPanel();
  ASSERT_EQ(base.num_tasks(), 10);
  EXPECT_EQ(base.source_id(3), 4);  // rows shift past the dropped stocks
  EXPECT_EQ(base.source_id(7), 9);
  const Dataset subset = base.Subset({0, 2, 3, 6, 9});
  const Dataset overlay = base.WithLabelOverlay(
      TestOverlay, std::shared_ptr<const void>());
  const std::vector<std::pair<std::string, const Dataset*>> views = {
      {"base", &base}, {"subset", &subset}, {"overlay", &overlay}};
  for (const auto& [name, view] : views) {
    SCOPED_TRACE(name);
    // Views step by the shared storage's rows, not their own task count.
    ExpectTapeLayout(*view, base.num_tasks());
    const Dataset packed = view->Materialized();
    SCOPED_TRACE("materialized");
    ExpectTapeLayout(packed, view->num_tasks());
    ASSERT_EQ(packed.num_tasks(), view->num_tasks());
    for (int k = 0; k < view->num_tasks(); ++k) {
      EXPECT_EQ(packed.source_id(k), view->source_id(k));
      for (int d = 0; d < view->num_days(); ++d) {
        ASSERT_EQ(std::memcmp(packed.FeatureRow(k, d), view->FeatureRow(k, d),
                              kNumFeatures * sizeof(float)),
                  0);
        ASSERT_TRUE(SameBits(packed.Label(k, d), view->Label(k, d)));
        ASSERT_TRUE(SameBits(packed.Close(k, d), view->Close(k, d)));
      }
    }
  }
  // The overlay is read lazily on top of the same base labels.
  const int date = base.dates(Split::kTrain)[0];
  EXPECT_TRUE(SameBits(overlay.Label(2, date),
                       TestOverlay(nullptr, base.source_id(2), date,
                                   base.Label(2, date))));
  EXPECT_EQ(subset.storage().get(), base.storage().get());
}

TEST(DatasetTest, GroupListsPartitionTasks) {
  const Dataset ds = Dataset::Simulate(SmallConfig(), DatasetConfig{});
  std::set<int> seen;
  for (int g = 0; g < ds.num_sector_groups(); ++g) {
    for (int k : ds.sector_tasks(g)) {
      EXPECT_EQ(ds.sector_of(k), g);
      EXPECT_TRUE(seen.insert(k).second) << "task in two sectors";
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), ds.num_tasks());

  seen.clear();
  for (int g = 0; g < ds.num_industry_groups(); ++g) {
    for (int k : ds.industry_tasks(g)) {
      EXPECT_EQ(ds.industry_of(k), g);
      EXPECT_TRUE(seen.insert(k).second) << "task in two industries";
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), ds.num_tasks());
}

TEST(DatasetTest, FirstUsableDateLeavesFullWindow) {
  const Dataset ds = Dataset::Simulate(SmallConfig(), DatasetConfig{});
  EXPECT_EQ(ds.first_usable_date(), kFeatureWarmup - 1 + ds.window() - 1);
  EXPECT_GE(ds.dates(Split::kTrain).front(), ds.first_usable_date());
}

TEST(DatasetTest, EmbeddedSignalIsDetectable) {
  // The simulator commits a mean-reversion signal: the deviation of close
  // from MA20 must negatively correlate with the next-day return.
  MarketConfig mc = SmallConfig();
  mc.num_days = 300;
  mc.mean_reversion_strength = 0.2;
  const Dataset ds = Dataset::Simulate(mc, DatasetConfig{});
  double corr_sum = 0.0;
  int n = 0;
  for (int date : ds.dates(Split::kTrain)) {
    std::vector<double> dev, label;
    for (int k = 0; k < ds.num_tasks(); ++k) {
      const float* f = ds.FeatureRow(k, date);
      dev.push_back(static_cast<double>(f[kClose] - f[kMa20]));
      label.push_back(ds.Label(k, date));
    }
    corr_sum += PearsonCorrelation(dev, label);
    ++n;
  }
  EXPECT_LT(corr_sum / n, -0.02);  // reliably negative
}

}  // namespace
}  // namespace alphaevolve::market
