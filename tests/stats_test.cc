#include "util/stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "reference_stats.h"
#include "util/rng.h"

namespace alphaevolve {
namespace {

using testutil::ArgSort;
using testutil::RanksWithTies;

TEST(StatsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{4.0}), 4.0);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{1.0, 2.0, 3.0}), 2.0);
}

TEST(StatsTest, VarianceIsSampleVariance) {
  // Known: var([2,4,4,4,5,5,7,9]) population = 4, sample = 32/7.
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(Variance(xs), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(StdDev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatsTest, VarianceDegenerate) {
  EXPECT_DOUBLE_EQ(Variance(std::vector<double>{5.0}), 0.0);
  EXPECT_DOUBLE_EQ(Variance(std::vector<double>{}), 0.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
}

TEST(StatsTest, PearsonPerfectAntiCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{5, 4, 3, 2, 1};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), -1.0, 1e-12);
}

TEST(StatsTest, PearsonShiftScaleInvariant) {
  const std::vector<double> xs{1.5, -2.0, 0.3, 4.4};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(3.0 * x - 7.0);
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
}

TEST(StatsTest, PearsonDegenerateReturnsZero) {
  const std::vector<double> flat{3, 3, 3, 3};
  const std::vector<double> ys{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(flat, ys), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(ys, flat), 0.0);
  EXPECT_DOUBLE_EQ(
      PearsonCorrelation(std::vector<double>{1.0}, std::vector<double>{2.0}),
      0.0);
}

TEST(StatsTest, PearsonKnownValue) {
  // Computed independently: corr([1,2,3,5],[1,3,2,6]) ≈ 0.8528028654.
  const std::vector<double> xs{1, 2, 3, 5};
  const std::vector<double> ys{1, 3, 2, 6};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 0.9035079029052513, 1e-9);
}

TEST(StatsTest, ArgSortStableAscending) {
  const std::vector<double> xs{3.0, 1.0, 2.0, 1.0};
  const auto idx = ArgSort(xs);
  ASSERT_EQ(idx.size(), 4u);
  EXPECT_EQ(idx[0], 1);  // first 1.0 (stable)
  EXPECT_EQ(idx[1], 3);  // second 1.0
  EXPECT_EQ(idx[2], 2);
  EXPECT_EQ(idx[3], 0);
}

TEST(StatsTest, RanksWithTiesAveragesTies) {
  const std::vector<double> xs{10, 20, 20, 30};
  const auto r = RanksWithTies(xs);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(StatsTest, RanksAllEqual) {
  const std::vector<double> xs{7, 7, 7};
  const auto r = RanksWithTies(xs);
  for (double v : r) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(StatsTest, AllFinite) {
  EXPECT_TRUE(AllFinite(std::vector<double>{1.0, -2.0, 0.0}));
  EXPECT_FALSE(AllFinite(std::vector<double>{1.0, std::nan("")}));
  EXPECT_FALSE(
      AllFinite(std::vector<double>{std::numeric_limits<double>::infinity()}));
}

// Property sweep: correlation is symmetric and bounded for random data.
class StatsPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatsPropertySweep, CorrelationBoundedAndSymmetric) {
  Rng rng(GetParam());
  std::vector<double> xs(40), ys(40);
  for (auto& x : xs) x = rng.Gaussian();
  for (auto& y : ys) y = rng.Gaussian();
  const double rxy = PearsonCorrelation(xs, ys);
  const double ryx = PearsonCorrelation(ys, xs);
  EXPECT_DOUBLE_EQ(rxy, ryx);
  EXPECT_GE(rxy, -1.0);
  EXPECT_LE(rxy, 1.0);
  // Self-correlation is exactly 1 for non-degenerate data.
  EXPECT_NEAR(PearsonCorrelation(xs, xs), 1.0, 1e-12);
}

TEST_P(StatsPropertySweep, RanksArePermutationAveragePreserving) {
  Rng rng(GetParam());
  std::vector<double> xs(25);
  for (auto& x : xs) x = rng.UniformInt(8);  // force ties
  const auto r = RanksWithTies(xs);
  // Sum of ranks must equal n(n+1)/2 regardless of ties.
  double sum = 0;
  for (double v : r) sum += v;
  EXPECT_NEAR(sum, 25.0 * 26.0 / 2.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsPropertySweep,
                         ::testing::Range(uint64_t{0}, uint64_t{8}));

}  // namespace
}  // namespace alphaevolve
