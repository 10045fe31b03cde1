// Table 5 — "Performance comparisons with the complex machine learning
// alphas": the evolved alpha_AE_D_0 / alpha_AE_NN_1 vs Rank_LSTM (grid
// searched) and RSR (graph-relation variant), means ± std over 5 seeds.
// Expected shape (paper): both evolved alphas beat both neural baselines;
// RSR's imposed static relational knowledge does not help on the noisy
// market (its IC is not above Rank_LSTM's); the neural baselines carry
// visible seed variance.

#include <iostream>

#include "common.h"
#include "core/evaluator_pool.h"
#include "nn/trainer.h"
#include "util/table.h"

using namespace aebench;

int main() {
  const BenchOptions opt = BenchOptions::FromEnv();
  const market::Dataset dataset = MakeBenchDataset(opt);
  PrintBanner("Table 5: vs complex machine learning alphas", opt, dataset);

  core::EvaluatorPool pool(dataset, core::EvaluatorConfig{}, opt.num_threads);

  // alpha_AE_D_0: expert-initialized search (round 0, no cutoff).
  core::WeaklyCorrelatedMiner miner(pool, MakeEvolutionConfig(opt, 1));
  const core::EvolutionResult ae_d =
      RunRoundFrom(miner, core::MakeExpertAlpha(dataset.window()), 100);
  if (ae_d.has_alpha) {
    miner.Accept("alpha_AE_D_0", ae_d.best, ae_d.best_metrics);
  }
  // alpha_AE_NN_1: NN-initialized, cutoff vs alpha_AE_D_0 (as in the paper,
  // it is the weakly correlated runner-up produced with relational ops).
  const core::EvolutionResult ae_nn =
      RunRoundFrom(miner, core::MakeNeuralNetAlpha(dataset.window()), 101);

  // Rank_LSTM grid search + 5 seeds; RSR reuses the winning config.
  alphaevolve::nn::ExperimentOptions nn_opt;
  nn_opt.epochs = 3;
  if (opt.full) nn_opt = alphaevolve::nn::ExperimentOptions::PaperGrid();
  const auto rank_lstm =
      alphaevolve::nn::RunRankLstmExperiment(dataset, nn_opt);
  const auto rsr = alphaevolve::nn::RunRsrExperiment(
      dataset, rank_lstm.best_config, nn_opt);

  alphaevolve::TablePrinter table(
      {"Alpha", "Sharpe ratio", "IC", "Sharpe (test)", "IC (test)"});
  auto add_ae = [&](const char* name, const core::EvolutionResult& r) {
    if (r.has_alpha) {
      table.AddRow({name, Num(r.best_metrics.sharpe_valid),
                    Num(r.best_metrics.ic_valid),
                    Num(r.best_metrics.sharpe_test),
                    Num(r.best_metrics.ic_test)});
    } else {
      table.AddRow({name, "NA", "NA", "NA", "NA"});
    }
  };
  add_ae("alpha_AE_D_0", ae_d);
  add_ae("alpha_AE_NN_1", ae_nn);
  table.AddRow({"Rank_LSTM",
                Num(rank_lstm.valid_sharpe_mean) + "+/-" +
                    Num(rank_lstm.valid_sharpe_std),
                Num(rank_lstm.valid_ic_mean) + "+/-" +
                    Num(rank_lstm.valid_ic_std),
                Num(rank_lstm.sharpe_mean) + "+/-" + Num(rank_lstm.sharpe_std),
                Num(rank_lstm.ic_mean) + "+/-" + Num(rank_lstm.ic_std)});
  table.AddRow({"RSR",
                Num(rsr.valid_sharpe_mean) + "+/-" + Num(rsr.valid_sharpe_std),
                Num(rsr.valid_ic_mean) + "+/-" + Num(rsr.valid_ic_std),
                Num(rsr.sharpe_mean) + "+/-" + Num(rsr.sharpe_std),
                Num(rsr.ic_mean) + "+/-" + Num(rsr.ic_std)});
  table.Print(std::cout);

  std::printf(
      "\nRank_LSTM grid winner: seq_len=%d hidden=%d alpha=%g "
      "(valid IC %.4f)\n",
      rank_lstm.best_config.seq_len, rank_lstm.best_config.hidden,
      rank_lstm.best_config.alpha, rank_lstm.best_valid_ic);
  return 0;
}
