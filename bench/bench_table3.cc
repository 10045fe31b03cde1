// Table 3 — "Performance of weakly correlated alpha mining for different
// initializations": per-round results for the D / NOOP / R / NN starting
// parents, with the last round initialized from the accepted alphas (B*).
// Expected shape (paper): a well-designed initialization (D) tends to win
// rounds; NOOP is weakest; performance decreases over rounds as cutoffs
// accumulate and recovers in the B* round.

#include <iostream>

#include "common.h"
#include "core/evaluator_pool.h"
#include "util/table.h"

using namespace aebench;

int main() {
  const BenchOptions opt = BenchOptions::FromEnv();
  const market::Dataset dataset = MakeBenchDataset(opt);
  PrintBanner("Table 3: initialization study", opt, dataset);

  core::EvaluatorPool pool(dataset, core::EvaluatorConfig{}, opt.num_threads);
  const AeStudyResult ae = RunAeStudy(pool, opt);

  alphaevolve::TablePrinter table({"Alpha", "Sharpe ratio", "IC",
                                   "Correlation with the best alphas",
                                   "Sharpe (test)", "IC (test)"});
  for (const auto& round : ae.rounds) {
    for (const StudyRow& row : round) {
      const std::string name = row.accepted ? row.name + " *" : row.name;
      if (row.has_alpha) {
        table.AddRow({name, Num(row.sharpe_valid), Num(row.ic_valid),
                      Corr(row.corr), Num(row.sharpe_test),
                      Num(row.ic_test)});
      } else {
        table.AddRow({name, "NA", "NA", "NA", "NA", "NA"});
      }
    }
  }
  table.Print(std::cout);
  std::printf("\n(* = round winner by validation Sharpe, accepted into A)\n");
  return 0;
}
