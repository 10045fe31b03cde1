// Table 2 — "Performance of weakly correlated alpha mining": AlphaEvolve vs
// the genetic algorithm across five mining rounds with the 15% cutoff
// accumulating over the accepted set. Expected shape (paper): both degrade
// as cutoffs accumulate; the GA degrades to uselessness (negative Sharpe,
// abandoned in the last round) while AlphaEvolve keeps producing weakly
// correlated alphas, and recovers in the last round when re-initialized
// from the previously accepted alphas (B*).

#include <cmath>
#include <iostream>

#include "common.h"
#include "core/evaluator_pool.h"
#include "util/table.h"

using namespace aebench;

int main() {
  const BenchOptions opt = BenchOptions::FromEnv();
  const market::Dataset dataset = MakeBenchDataset(opt);
  PrintBanner("Table 2: weakly correlated alpha mining, AE vs GA", opt,
              dataset);

  core::EvaluatorPool pool(dataset, core::EvaluatorConfig{}, opt.num_threads);
  const AeStudyResult ae = RunAeStudy(pool, opt);
  const std::vector<GaStudyRow> ga = RunGaStudy(dataset, opt);

  alphaevolve::TablePrinter table(
      {"Alpha", "Sharpe ratio", "IC", "Correlation with the best alphas",
       "Sharpe (test)", "IC (test)"});
  for (int round = 0; round < opt.rounds; ++round) {
    // The AE row for the round: the accepted (winning) alpha.
    const StudyRow* winner = nullptr;
    for (const StudyRow& row : ae.rounds[static_cast<size_t>(round)]) {
      if (row.accepted) winner = &row;
    }
    if (winner != nullptr) {
      table.AddRow({winner->name, Num(winner->sharpe_valid),
                    Num(winner->ic_valid), Corr(winner->corr),
                    Num(winner->sharpe_test), Num(winner->ic_test)});
    } else {
      table.AddRow({"alpha_AE_-_" + std::to_string(round), "NA", "NA", "NA",
                    "NA", "NA"});
    }
    const GaStudyRow& g = ga[static_cast<size_t>(round)];
    if (g.has_alpha) {
      table.AddRow({g.name, Num(g.sharpe_valid), Num(g.ic_valid),
                    Corr(g.corr), Num(g.sharpe_test), Num(g.ic_test)});
    } else {
      table.AddRow({g.name, "NA", "NA", "NA", "NA", "NA"});
    }
  }
  table.Print(std::cout);

  std::printf("\naccepted set A: ");
  for (const auto& name : ae.accepted_names) std::printf("%s ", name.c_str());
  std::printf("\n");
  return 0;
}
