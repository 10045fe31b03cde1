#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace alphaevolve {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() != b.NextU64()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(RngTest, UniformMeanApproximatesHalf) {
  Rng rng(99);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(42);
  const int n = 100000;
  double sum = 0, ss = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    ss += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(ss / n, 1.0, 0.03);
}

TEST(RngTest, GaussianScaled) {
  Rng rng(42);
  const int n = 50000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(5.0, 0.1);
  EXPECT_NEAR(sum / n, 5.0, 0.01);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(5);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(7);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
  }
  // Degenerate range.
  EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, WeightedChoiceRespectsZeroWeights) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.WeightedChoice({0.0, 1.0, 0.0}), 1);
  }
}

TEST(RngTest, WeightedChoiceProportions) {
  Rng rng(3);
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.WeightedChoice({1.0, 2.0, 1.0})];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.50, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.25, 0.02);
}

TEST(CounterRngTest, PureAndOrderIndependent) {
  const CounterRng a(123, 7);
  // Same (seed, stream, index) -> same value, regardless of query order or
  // repetition — the property that makes sharded draws schedule-invariant.
  std::vector<uint64_t> forward, backward;
  for (uint64_t i = 0; i < 64; ++i) forward.push_back(a.At(i));
  for (uint64_t i = 64; i-- > 0;) backward.push_back(a.At(i));
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(forward[i], backward[63 - i]);
    EXPECT_EQ(forward[i], CounterRng(123, 7).At(i));
  }
}

TEST(CounterRngTest, SeedsAndStreamsGiveDistinctSequences) {
  const CounterRng base(1, 0), other_seed(2, 0), other_stream(1, 1);
  int differ_seed = 0, differ_stream = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    if (base.At(i) != other_seed.At(i)) ++differ_seed;
    if (base.At(i) != other_stream.At(i)) ++differ_stream;
  }
  EXPECT_GT(differ_seed, 60);
  EXPECT_GT(differ_stream, 60);
}

TEST(CounterRngTest, UniformBoundsAndMean) {
  const CounterRng rng(9, 3);
  double sum = 0.0;
  const int n = 100000;
  for (uint64_t i = 0; i < n; ++i) {
    const double u = rng.UniformAt(i);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);

  for (uint64_t i = 0; i < 1000; ++i) {
    const double u = rng.UniformAt(i, -3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(CounterRngTest, GaussianMoments) {
  const CounterRng rng(42, 11);
  const int n = 100000;
  double sum = 0, ss = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const double g = rng.GaussianAt(i);
    sum += g;
    ss += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(ss / n, 1.0, 0.03);

  double scaled = 0;
  for (uint64_t i = 0; i < 50000; ++i) scaled += rng.GaussianAt(i, 5.0, 0.1);
  EXPECT_NEAR(scaled / 50000, 5.0, 0.01);
}

class RngSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedSweep, UniformIntCoversDomainForAnySeed) {
  Rng rng(GetParam());
  std::set<int> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.UniformInt(10));
  EXPECT_EQ(seen.size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 2ULL, 42ULL, 1337ULL,
                                           0xFFFFFFFFFFFFFFFFULL));

}  // namespace
}  // namespace alphaevolve
