#include "eval/portfolio.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace alphaevolve::eval {

namespace {

/// One date's long-short book and its gross return. `order` holds the
/// date's shorts in order[0, top_n) and its longs in
/// order[num_tasks - top_n, num_tasks), each side ascending.
double GrossReturn(const market::Dataset& dataset, int date,
                   const std::vector<int>& order, int top_n) {
  const int num_tasks = static_cast<int>(order.size());
  double long_ret = 0.0, short_ret = 0.0;
  for (int i = 0; i < top_n; ++i) {
    short_ret += dataset.Label(order[static_cast<size_t>(i)], date);
    long_ret +=
        dataset.Label(order[static_cast<size_t>(num_tasks - 1 - i)], date);
  }
  long_ret /= top_n;
  short_ret /= top_n;
  return 0.5 * (long_ret - short_ret);
}

/// Puts the `top_n` lowest predictions in order[0, top_n) and the `top_n`
/// highest in order[size - top_n, size), each side sorted ascending under
/// (prediction, task index): exactly where a stable ascending sort of the
/// whole universe puts them, at the cost of two selections and two sorts of
/// top_n names. -0.0 and 0.0 tie and fall back to task order, as under the
/// stable sort. The executor never passes on a NaN, but the GA's and the
/// neural baselines' predictions may hold one: it ranks above every number,
/// as in the executor's rank op, so the order stays strict and total and
/// the selection well defined. `order` may hold any permutation of the task
/// indexes.
void SelectBook(const std::vector<double>& preds, int top_n,
                std::vector<int>& order) {
  auto before = [&preds](int a, int b) {
    const double pa = preds[static_cast<size_t>(a)];
    const double pb = preds[static_cast<size_t>(b)];
    if (pa < pb) return true;
    if (pb < pa) return false;
    const bool a_nan = std::isnan(pa), b_nan = std::isnan(pb);
    if (a_nan != b_nan) return b_nan;
    return a < b;
  };
  const auto shorts_end = order.begin() + top_n;
  const auto longs_begin = order.end() - top_n;
  std::nth_element(order.begin(), shorts_end, order.end(), before);
  std::nth_element(shorts_end, longs_begin, order.end(), before);
  std::sort(order.begin(), shorts_end, before);
  std::sort(longs_begin, order.end(), before);
}

}  // namespace

int PortfolioConfig::ResolveTopN(int num_tasks) const {
  if (top_n > 0) return std::min(top_n, num_tasks / 2);
  // The paper longs/shorts 50 of 1,026 stocks (~5%); at bench scale a 10%
  // slice keeps enough names per side for a stable Sharpe estimate.
  return std::max(1, num_tasks / 10);
}

Backtest RunBacktest(const market::Dataset& dataset,
                     const std::vector<int>& dates,
                     const std::vector<std::vector<double>>& predictions,
                     const PortfolioConfig& config, const CostConfig& costs) {
  AE_CHECK(predictions.size() == dates.size());
  const int num_tasks = dataset.num_tasks();
  const int top_n = config.ResolveTopN(num_tasks);
  AE_CHECK(top_n >= 1 && 2 * top_n <= num_tasks);

  Backtest bt;
  bt.gross.reserve(dates.size());
  bt.turnover.reserve(dates.size());
  // Previous date's membership: +1 long, -1 short, 0 out of the book.
  std::vector<signed char> prev_side(static_cast<size_t>(num_tasks), 0);
  std::vector<signed char> side(static_cast<size_t>(num_tasks), 0);
  std::vector<int> order(static_cast<size_t>(num_tasks));
  std::iota(order.begin(), order.end(), 0);
  for (size_t d = 0; d < dates.size(); ++d) {
    const auto& preds = predictions[d];
    AE_CHECK(static_cast<int>(preds.size()) == num_tasks);
    SelectBook(preds, top_n, order);
    bt.gross.push_back(GrossReturn(dataset, dates[d], order, top_n));

    std::fill(side.begin(), side.end(), static_cast<signed char>(0));
    int entering = 0;
    for (int i = 0; i < top_n; ++i) {
      const int short_task = order[static_cast<size_t>(i)];
      const int long_task = order[static_cast<size_t>(num_tasks - 1 - i)];
      side[static_cast<size_t>(short_task)] = -1;
      side[static_cast<size_t>(long_task)] = 1;
      if (prev_side[static_cast<size_t>(short_task)] != -1) ++entering;
      if (prev_side[static_cast<size_t>(long_task)] != 1) ++entering;
    }
    // The first date's book establishment is free (see CostConfig).
    bt.turnover.push_back(
        d == 0 ? 0.0 : static_cast<double>(entering) / (2.0 * top_n));
    std::swap(prev_side, side);
  }
  // Cost model off: leave net empty instead of materializing a dead copy of
  // gross on the mining hot path (callers branch on costs.enabled()).
  if (costs.enabled()) bt.net = ApplyCosts(bt.gross, bt.turnover, costs);
  return bt;
}

std::vector<double> NavPath(const std::vector<double>& portfolio_returns) {
  std::vector<double> nav;
  nav.reserve(portfolio_returns.size() + 1);
  nav.push_back(1.0);
  for (double r : portfolio_returns) nav.push_back(nav.back() * (1.0 + r));
  return nav;
}

}  // namespace alphaevolve::eval
