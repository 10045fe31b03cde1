#ifndef ALPHAEVOLVE_EVAL_PORTFOLIO_H_
#define ALPHAEVOLVE_EVAL_PORTFOLIO_H_

#include <vector>

#include "eval/costs.h"
#include "market/dataset.h"

namespace alphaevolve::eval {

/// Long-short portfolio construction (paper §5.3).
struct PortfolioConfig {
  /// Number of stocks on each side. The paper uses 50 with 1,026 stocks;
  /// at bench scale the default is resolved as max(1, num_tasks/10) when
  /// set to 0 (auto).
  int top_n = 0;

  int ResolveTopN(int num_tasks) const;
};

/// Cost-aware backtest of the long-short strategy: at each date, long the
/// `top_n` highest predicted returns and short the `top_n` lowest,
/// equal-weighted and dollar-neutral against the cash position, so
///
///   gross[d] = (mean(realized return of longs) −
///               mean(realized return of shorts)) / 2.
///
/// `predictions[d][k]` and the dataset's labels over `dates` supply the
/// rankings and the realized next-day returns. Ranks follow (prediction,
/// task index), so ties rank in task order; the shorts' returns are summed
/// from the lowest rank up and the longs' from the highest down. Each date
/// selects its 2 × top_n names and sorts only those, O(num_tasks + top_n
/// log top_n) instead of a sort of the whole universe, and the book and its
/// sums come out as a stable sort of every prediction would give them.
/// `turnover` follows the day-over-day membership convention of
/// `CostConfig` (first date free, ∈ [0, 1]); `net` is
/// `ApplyCosts(gross, turnover, costs)` when the cost model is enabled and
/// empty otherwise (net would equal gross bit for bit). Callers that want
/// only the gross series pass `CostConfig{}`.
struct Backtest {
  std::vector<double> gross;
  std::vector<double> net;
  std::vector<double> turnover;
};

Backtest RunBacktest(const market::Dataset& dataset,
                     const std::vector<int>& dates,
                     const std::vector<std::vector<double>>& predictions,
                     const PortfolioConfig& config, const CostConfig& costs);

/// Net-asset-value path implied by the return series, NAV(0) = 1.
std::vector<double> NavPath(const std::vector<double>& portfolio_returns);

}  // namespace alphaevolve::eval

#endif  // ALPHAEVOLVE_EVAL_PORTFOLIO_H_
