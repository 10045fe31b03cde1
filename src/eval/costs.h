#ifndef ALPHAEVOLVE_EVAL_COSTS_H_
#define ALPHAEVOLVE_EVAL_COSTS_H_

#include <vector>

namespace alphaevolve::eval {

/// Transaction-cost model for the long-short backtest.
///
/// Book convention (that of `RunBacktest`'s gross series): the portfolio
/// holds 0.5 units of capital long and 0.5 short, equal-weighted over
/// `top_n` names per side, so R_p = 0.5 * (mean long return − mean short
/// return) is the return per unit of gross capital.
///
/// Turnover on a date is the fraction of book positions replaced relative
/// to the previous date's membership:
///
///   turnover[d] = (#names entering the long side +
///                  #names entering the short side) / (2 * top_n) ∈ [0, 1]
///
/// The first date's book is free (establishment is not charged), so a
/// constant-membership portfolio has zero turnover everywhere.
///
/// Replacing a position trades twice its notional (sell the old name, buy
/// the new), and both sides together hold 1.0 of gross capital, so a fully
/// rotating book (turnover == 1) trades 2.0 of notional per day and pays
///
///   cost[d] = 2 * turnover[d] * per_side_bps * 1e-4
///
/// — i.e. 2×bps per day at full rotation, exactly bps per side.
struct CostConfig {
  /// Cost per transaction side (each buy and each sell) in basis points of
  /// traded notional: commission plus any linear market-impact slippage.
  /// 0 disables the term: net returns are then the gross returns, bit for
  /// bit.
  double per_side_bps = 0.0;

  /// Daily financing charge on the short book, in basis points of shorted
  /// notional per calendar day. The book shorts 0.5 of gross capital at all
  /// times, so this charges 0.5 * borrow_bps_per_day * 1e-4 every backtest
  /// day (including the free-establishment first day — the book is short
  /// from day one), independent of turnover.
  double borrow_bps_per_day = 0.0;

  bool enabled() const {
    return per_side_bps > 0.0 || borrow_bps_per_day > 0.0;
  }
};

/// Net daily returns:
///   gross[d] − 2 * turnover[d] * per_side_bps * 1e-4
///            − 0.5 * borrow_bps_per_day * 1e-4.
/// With a zero-cost config the gross series is returned unchanged.
std::vector<double> ApplyCosts(const std::vector<double>& gross,
                               const std::vector<double>& turnover,
                               const CostConfig& config);

}  // namespace alphaevolve::eval

#endif  // ALPHAEVOLVE_EVAL_COSTS_H_
