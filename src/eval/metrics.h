#ifndef ALPHAEVOLVE_EVAL_METRICS_H_
#define ALPHAEVOLVE_EVAL_METRICS_H_

#include <vector>

#include "market/dataset.h"

namespace alphaevolve::eval {

/// Information Coefficient (paper Eq. 1): the mean over dates of the
/// cross-sectional sample Pearson correlation between the prediction vector
/// and the label vector. Dates with degenerate (constant) predictions
/// contribute 0.
double InformationCoefficient(
    const market::Dataset& dataset, const std::vector<int>& dates,
    const std::vector<std::vector<double>>& predictions);

/// Annualized Sharpe ratio of a daily portfolio-return series (paper §5.3):
/// SR = mean(R)/std(R) · √252, with the risk-free rate set to 0 as in the
/// paper. Returns 0 if the series is shorter than 2 or has zero volatility.
double SharpeRatio(const std::vector<double>& portfolio_returns);

/// Sample Pearson correlation between two alphas' portfolio-return series —
/// the quantity the 15% weak-correlation cutoff is applied to (paper §5.4.1).
double PortfolioCorrelation(const std::vector<double>& returns_a,
                            const std::vector<double>& returns_b);

/// The weak-correlation cutoff (paper §5.4.1): true iff `returns` correlates
/// with some series of `accepted` beyond `cutoff` in absolute value
/// (|corr| > cutoff, so a correlation of exactly the cutoff is kept). Scans
/// `accepted` in order and stops at the first breach.
bool BreaksCorrelationCutoff(const std::vector<double>& returns,
                             const std::vector<std::vector<double>>& accepted,
                             double cutoff);

}  // namespace alphaevolve::eval

#endif  // ALPHAEVOLVE_EVAL_METRICS_H_
