#include "nn/trainer.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "eval/metrics.h"
#include "util/stats.h"
#include "util/threadpool.h"

namespace alphaevolve::nn {

ExperimentOptions ExperimentOptions::PaperGrid() {
  ExperimentOptions o;
  o.seq_lens = {4, 8, 16, 32};
  o.hiddens = {32, 64, 128, 256};
  o.alphas = {0.01, 0.1, 1.0, 10.0};
  o.epochs = 8;
  return o;
}

TestScores ScoreOnSplit(const market::Dataset& dataset, market::Split split,
                        const std::vector<std::vector<double>>& preds,
                        const eval::PortfolioConfig& portfolio) {
  const auto& dates = dataset.dates(split);
  TestScores s;
  s.ic = eval::InformationCoefficient(dataset, dates, preds);
  s.sharpe = eval::SharpeRatio(
      eval::RunBacktest(dataset, dates, preds, portfolio, eval::CostConfig{})
          .gross);
  return s;
}

namespace {

/// Mean/std over per-seed scores for both splits.
void Aggregate(const std::vector<TestScores>& test_scores,
               const std::vector<TestScores>& valid_scores,
               ModelExperimentResult* out) {
  std::vector<double> ics, sharpes;
  for (const auto& s : test_scores) {
    ics.push_back(s.ic);
    sharpes.push_back(s.sharpe);
  }
  out->ic_mean = Mean(ics);
  out->ic_std = StdDev(ics);
  out->sharpe_mean = Mean(sharpes);
  out->sharpe_std = StdDev(sharpes);
  ics.clear();
  sharpes.clear();
  for (const auto& s : valid_scores) {
    ics.push_back(s.ic);
    sharpes.push_back(s.sharpe);
  }
  out->valid_ic_mean = Mean(ics);
  out->valid_ic_std = StdDev(ics);
  out->valid_sharpe_mean = Mean(sharpes);
  out->valid_sharpe_std = StdDev(sharpes);
}

/// One shared pool per experiment: outer grid cells / seed sweeps and the
/// per-batch forward fan-out inside each model draw from the same workers
/// (ThreadPool::ParallelFor is re-entrant, so nesting cannot deadlock).
int ExperimentThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

}  // namespace

ModelExperimentResult RunRankLstmExperiment(const market::Dataset& dataset,
                                            const ExperimentOptions& options) {
  ModelExperimentResult result;
  result.best_valid_ic = -2.0;
  ThreadPool pool(ExperimentThreads());

  // Grid search on the validation split (one fixed seed, as in the paper's
  // protocol of selecting hyper-parameters before the 5-seed report). Cells
  // train concurrently; the winner is still picked by a serial scan in grid
  // order, so ties resolve exactly as the sequential loop did.
  std::vector<RankLstmConfig> cells;
  for (int seq_len : options.seq_lens) {
    for (int hidden : options.hiddens) {
      for (double alpha : options.alphas) {
        RankLstmConfig cfg;
        cfg.seq_len = seq_len;
        cfg.hidden = hidden;
        cfg.alpha = alpha;
        cfg.epochs = options.epochs;
        cfg.seed = 1;
        cells.push_back(cfg);
      }
    }
  }
  std::vector<double> cell_ic(cells.size());
  pool.ParallelFor(static_cast<int>(cells.size()), [&](int i) {
    RankLstm model(dataset, cells[static_cast<size_t>(i)], &pool);
    model.Train();
    const auto preds = model.Predict(dataset.dates(market::Split::kValid));
    cell_ic[static_cast<size_t>(i)] = eval::InformationCoefficient(
        dataset, dataset.dates(market::Split::kValid), preds);
  });
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cell_ic[i] > result.best_valid_ic) {
      result.best_valid_ic = cell_ic[i];
      result.best_config = cells[i];
    }
  }

  std::vector<TestScores> test_scores(static_cast<size_t>(options.num_seeds));
  std::vector<TestScores> valid_scores(static_cast<size_t>(options.num_seeds));
  pool.ParallelFor(options.num_seeds, [&](int seed) {
    RankLstmConfig cfg = result.best_config;
    cfg.seed = static_cast<uint64_t>(100 + seed);
    RankLstm model(dataset, cfg, &pool);
    model.Train();
    test_scores[static_cast<size_t>(seed)] = ScoreOnSplit(
        dataset, market::Split::kTest,
        model.Predict(dataset.dates(market::Split::kTest)),
        options.portfolio);
    valid_scores[static_cast<size_t>(seed)] = ScoreOnSplit(
        dataset, market::Split::kValid,
        model.Predict(dataset.dates(market::Split::kValid)),
        options.portfolio);
  });
  Aggregate(test_scores, valid_scores, &result);
  return result;
}

ModelExperimentResult RunRsrExperiment(const market::Dataset& dataset,
                                       const RankLstmConfig& base,
                                       const ExperimentOptions& options) {
  ModelExperimentResult result;
  result.best_config = base;
  ThreadPool pool(ExperimentThreads());
  std::vector<TestScores> test_scores(static_cast<size_t>(options.num_seeds));
  std::vector<TestScores> valid_scores(static_cast<size_t>(options.num_seeds));
  pool.ParallelFor(options.num_seeds, [&](int seed) {
    RsrConfig cfg;
    cfg.base = base;
    cfg.base.seed = static_cast<uint64_t>(200 + seed);
    cfg.base.epochs = options.epochs;
    Rsr model(dataset, cfg, &pool);
    model.Train();
    test_scores[static_cast<size_t>(seed)] = ScoreOnSplit(
        dataset, market::Split::kTest,
        model.Predict(dataset.dates(market::Split::kTest)),
        options.portfolio);
    valid_scores[static_cast<size_t>(seed)] = ScoreOnSplit(
        dataset, market::Split::kValid,
        model.Predict(dataset.dates(market::Split::kValid)),
        options.portfolio);
  });
  Aggregate(test_scores, valid_scores, &result);
  return result;
}

}  // namespace alphaevolve::nn
