#include "eval/metrics.h"

#include <cmath>

#include "util/check.h"
#include "util/stats.h"

namespace alphaevolve::eval {

double InformationCoefficient(
    const market::Dataset& dataset, const std::vector<int>& dates,
    const std::vector<std::vector<double>>& predictions) {
  AE_CHECK(predictions.size() == dates.size());
  if (dates.empty()) return 0.0;
  const int num_tasks = dataset.num_tasks();
  std::vector<double> labels(static_cast<size_t>(num_tasks));
  double sum = 0.0;
  for (size_t d = 0; d < dates.size(); ++d) {
    for (int k = 0; k < num_tasks; ++k) {
      labels[static_cast<size_t>(k)] = dataset.Label(k, dates[d]);
    }
    sum += PearsonCorrelation(predictions[d], labels);
  }
  return sum / static_cast<double>(dates.size());
}

double SharpeRatio(const std::vector<double>& portfolio_returns) {
  if (portfolio_returns.size() < 2) return 0.0;
  const double mu = Mean(portfolio_returns);
  const double sigma = StdDev(portfolio_returns);
  if (sigma <= 0.0) return 0.0;
  // Annualized over 252 trading days; risk-free rate 0 (paper footnote 4).
  return mu / sigma * std::sqrt(252.0);
}

double PortfolioCorrelation(const std::vector<double>& returns_a,
                            const std::vector<double>& returns_b) {
  return PearsonCorrelation(returns_a, returns_b);
}

bool BreaksCorrelationCutoff(const std::vector<double>& returns,
                             const std::vector<std::vector<double>>& accepted,
                             double cutoff) {
  for (const std::vector<double>& other : accepted) {
    if (std::abs(PortfolioCorrelation(returns, other)) > cutoff) return true;
  }
  return false;
}

}  // namespace alphaevolve::eval
