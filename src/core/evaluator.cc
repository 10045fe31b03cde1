#include "core/evaluator.h"

#include <cmath>
#include <cstdio>
#include <string>

#include "eval/metrics.h"
#include "core/pruning.h"
#include "util/check.h"
#include "util/stats.h"

namespace alphaevolve::core {

Evaluator::Evaluator(const market::Dataset& dataset, EvaluatorConfig config)
    : dataset_(dataset), config_(config), executor_(dataset, config.executor) {}

AlphaMetrics Evaluator::Evaluate(const AlphaProgram& program, uint64_t seed,
                                 bool include_test) {
  return Measure(program, seed, /*with_book=*/true, include_test);
}

AlphaMetrics Evaluator::EvaluateFitness(const AlphaProgram& program,
                                        uint64_t seed, bool with_book) {
  return Measure(program, seed, with_book, /*include_test=*/false);
}

AlphaMetrics Evaluator::Measure(const AlphaProgram& program, uint64_t seed,
                                bool with_book, bool include_test) {
  AlphaMetrics m;
  ExecutionResult r =
      executor_.Run(program, seed, include_test, /*limit_train=*/-1,
                    /*limit_valid=*/-1, config_.eval_budget_seconds);
  if (!r.valid) {  // m.valid == false, fitness kInvalidFitness
    m.timed_out = r.timed_out;
    return m;
  }

  const auto& valid_dates = dataset_.dates(market::Split::kValid);
  m.valid = true;
  m.ic_valid = eval::InformationCoefficient(dataset_, valid_dates,
                                            r.valid_preds);
  if (!with_book) return m;
  eval::Backtest valid_bt = eval::RunBacktest(
      dataset_, valid_dates, r.valid_preds, config_.portfolio, config_.costs);
  m.sharpe_valid = eval::SharpeRatio(valid_bt.gross);
  // Costs disabled: net == gross bit for bit, so skip the recompute (this
  // is the mining hot path).
  m.sharpe_valid_net = config_.costs.enabled()
                           ? eval::SharpeRatio(valid_bt.net)
                           : m.sharpe_valid;
  m.mean_turnover_valid = Mean(valid_bt.turnover);
  m.valid_portfolio_returns = std::move(valid_bt.gross);

  if (include_test) {
    const auto& test_dates = dataset_.dates(market::Split::kTest);
    m.ic_test =
        eval::InformationCoefficient(dataset_, test_dates, r.test_preds);
    eval::Backtest test_bt = eval::RunBacktest(
        dataset_, test_dates, r.test_preds, config_.portfolio, config_.costs);
    m.sharpe_test = eval::SharpeRatio(test_bt.gross);
    m.sharpe_test_net = config_.costs.enabled()
                            ? eval::SharpeRatio(test_bt.net)
                            : m.sharpe_test;
    m.mean_turnover_test = Mean(test_bt.turnover);
    m.test_portfolio_returns = std::move(test_bt.gross);
  }
  return m;
}

uint64_t Evaluator::ProbeFingerprint(const AlphaProgram& program,
                                     uint64_t seed, int probe_train,
                                     int probe_valid) {
  ExecutionResult r = executor_.Run(program, seed, /*include_test=*/false,
                                    probe_train, probe_valid);
  if (!r.valid) return 0;  // all invalid alphas share one bucket
  std::string text;
  text.reserve(1024);
  char buf[32];
  for (const auto& row : r.valid_preds) {
    for (double p : row) {
      // Round to 9 significant digits so bitwise-identical behaviour maps to
      // the same fingerprint across evaluation orders.
      std::snprintf(buf, sizeof(buf), "%.9g,", p);
      text += buf;
    }
  }
  return HashString(text);
}

}  // namespace alphaevolve::core
