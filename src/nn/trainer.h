#ifndef ALPHAEVOLVE_NN_TRAINER_H_
#define ALPHAEVOLVE_NN_TRAINER_H_

#include <vector>

#include "eval/portfolio.h"
#include "market/dataset.h"
#include "nn/rank_lstm.h"
#include "nn/rsr.h"

namespace alphaevolve::nn {

/// Grid + evaluation protocol for the complex machine-learning baselines
/// (paper §5.2, Table 5): grid-search Rank_LSTM on the validation split,
/// keep the winning hyper-parameters, then report mean ± std of the test
/// metrics over `num_seeds` random seeds; RSR reuses the winning
/// hyper-parameters. Grid cells, the seed sweep and the per-batch forward
/// fan-out inside each model share one pool of hardware-concurrency
/// workers; every cell is an independent deterministic computation, so the
/// thread count can never change the reported numbers.
struct ExperimentOptions {
  std::vector<int> seq_lens = {4, 8};
  std::vector<int> hiddens = {16, 32};
  std::vector<double> alphas = {0.1, 1.0};
  int epochs = 4;
  int num_seeds = 5;
  eval::PortfolioConfig portfolio;

  /// The paper's full grid (§5.2) — 64 cells; heavy, opt-in.
  static ExperimentOptions PaperGrid();
};

/// Mean ± std of the test metrics across seeds.
struct ModelExperimentResult {
  RankLstmConfig best_config;
  double best_valid_ic = 0.0;
  // Test-split aggregates over seeds.
  double ic_mean = 0.0, ic_std = 0.0;
  double sharpe_mean = 0.0, sharpe_std = 0.0;
  // Validation-split aggregates over seeds (the split Eq. 1 defines IC on).
  double valid_ic_mean = 0.0, valid_ic_std = 0.0;
  double valid_sharpe_mean = 0.0, valid_sharpe_std = 0.0;
};

/// Test IC / Sharpe of a prediction matrix (helper shared by the benches).
struct TestScores {
  double ic = 0.0;
  double sharpe = 0.0;
};
TestScores ScoreOnSplit(const market::Dataset& dataset, market::Split split,
                        const std::vector<std::vector<double>>& preds,
                        const eval::PortfolioConfig& portfolio);

/// Runs the Rank_LSTM grid search + multi-seed evaluation.
ModelExperimentResult RunRankLstmExperiment(const market::Dataset& dataset,
                                            const ExperimentOptions& options);

/// Runs RSR with the given base hyper-parameters over multiple seeds.
ModelExperimentResult RunRsrExperiment(const market::Dataset& dataset,
                                       const RankLstmConfig& base,
                                       const ExperimentOptions& options);

}  // namespace alphaevolve::nn

#endif  // ALPHAEVOLVE_NN_TRAINER_H_
