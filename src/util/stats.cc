#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace alphaevolve {

double Mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double Variance(std::span<const double> xs) {
  const size_t n = xs.size();
  if (n < 2) return 0.0;
  const double mu = Mean(xs);
  double ss = 0.0;
  for (double x : xs) {
    const double d = x - mu;
    ss += d * d;
  }
  return ss / static_cast<double>(n - 1);
}

double StdDev(std::span<const double> xs) { return std::sqrt(Variance(xs)); }

double PearsonCorrelation(std::span<const double> xs,
                          std::span<const double> ys) {
  AE_CHECK(xs.size() == ys.size());
  const size_t n = xs.size();
  if (n < 2) return 0.0;
  const double mx = Mean(xs);
  const double my = Mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  constexpr double kEps = 1e-12;
  if (sxx < kEps || syy < kEps) return 0.0;
  const double r = sxy / std::sqrt(sxx * syy);
  // Guard against tiny floating-point excursions outside [-1, 1].
  return std::clamp(r, -1.0, 1.0);
}

bool AllFinite(std::span<const double> xs) {
  for (double x : xs) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace alphaevolve
