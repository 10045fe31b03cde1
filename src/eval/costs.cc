#include "eval/costs.h"

#include "util/check.h"

namespace alphaevolve::eval {

std::vector<double> ApplyCosts(const std::vector<double>& gross,
                               const std::vector<double>& turnover,
                               const CostConfig& config) {
  if (!config.enabled()) return gross;
  AE_CHECK(gross.size() == turnover.size());
  std::vector<double> net(gross.size());
  const double rate = 2.0 * config.per_side_bps * 1e-4;
  const double borrow = 0.5 * config.borrow_bps_per_day * 1e-4;
  for (size_t d = 0; d < gross.size(); ++d) {
    net[d] = gross[d] - rate * turnover[d] - borrow;
  }
  return net;
}

}  // namespace alphaevolve::eval
