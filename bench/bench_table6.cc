// Table 6 — "Efficiency of the pruning technique": each mining round is run
// twice under the same wall-clock budget — once with the paper's
// redundancy-pruning + evaluation-free structural fingerprint, once with
// the AutoML-Zero prediction fingerprint (`*_N`), which must evaluate a
// probe before it can deduplicate and never prunes. Expected shape (paper):
// the pruned search covers several times more candidate alphas per unit
// time and mines better alphas.

#include <cmath>
#include <iostream>
#include <limits>

#include "common.h"
#include "core/evaluator_pool.h"
#include "util/table.h"

using namespace aebench;

int main() {
  const BenchOptions opt = BenchOptions::FromEnv();
  const market::Dataset dataset = MakeBenchDataset(opt);
  PrintBanner("Table 6: pruning-technique efficiency", opt, dataset);

  core::EvaluatorPool pool(dataset, core::EvaluatorConfig{}, opt.num_threads);

  core::EvolutionConfig pruned_cfg = MakeEvolutionConfig(opt, 1);
  core::EvolutionConfig nofp_cfg = pruned_cfg;
  nofp_cfg.use_pruning = false;

  core::WeaklyCorrelatedMiner miner(pool, pruned_cfg);
  core::Mutator mutator{core::MutatorConfig{}};
  const core::InitKind kInits[] = {
      core::InitKind::kExpert, core::InitKind::kNeuralNet,
      core::InitKind::kRandom, core::InitKind::kExpert,
      core::InitKind::kExpert};

  alphaevolve::TablePrinter table({"Alpha", "Sharpe ratio", "IC",
                                   "Correlation", "Number of searched alphas"});
  int64_t total_pruned = 0, total_nofp = 0;
  for (int round = 0; round < opt.rounds; ++round) {
    alphaevolve::Rng rng(static_cast<uint64_t>(round) * 31 + 7);
    const core::AlphaProgram init =
        round == opt.rounds - 1 && !miner.accepted().empty()
            ? miner.accepted().front().program
            : core::MakeInitialAlpha(kInits[round % 5], mutator, rng);
    const std::string base =
        round == opt.rounds - 1 && !miner.accepted().empty()
            ? "alpha_AE_B0_" + std::to_string(round)
            : "alpha_AE_" +
                  std::string(core::InitKindName(kInits[round % 5])) + "_" +
                  std::to_string(round);

    // With pruning (the paper's technique).
    core::EvolutionResult with = miner.RunSearch(init, 700 + round);
    total_pruned += with.stats.candidates;
    if (with.has_alpha) {
      table.AddRow({base, Num(with.best_metrics.sharpe_valid),
                    Num(with.best_metrics.ic_valid),
                    Corr(miner.CorrelationWithAccepted(with.best_metrics)),
                    std::to_string(with.stats.candidates)});
    } else {
      table.AddRow({base, "NA", "NA", "NA",
                    std::to_string(with.stats.candidates)});
    }

    // Without pruning: prediction fingerprint, same accepted set & budget.
    std::vector<std::vector<double>> accepted_returns;
    for (const auto& a : miner.accepted()) {
      accepted_returns.push_back(a.metrics.valid_portfolio_returns);
    }
    core::EvolutionConfig cfg = nofp_cfg;
    cfg.seed = 700 + round;
    core::Evolution nofp(pool, cfg, accepted_returns);
    const core::EvolutionResult without = nofp.Run(init);
    total_nofp += without.stats.candidates;
    double corr_n = std::numeric_limits<double>::quiet_NaN();
    if (without.has_alpha) {
      corr_n = miner.CorrelationWithAccepted(without.best_metrics);
      table.AddRow({base + "_N",
                    Num(without.best_metrics.sharpe_valid),
                    Num(without.best_metrics.ic_valid), Corr(corr_n),
                    std::to_string(without.stats.candidates)});
    } else {
      table.AddRow({base + "_N", "NA", "NA", "NA",
                    std::to_string(without.stats.candidates)});
    }

    // Grow the accepted set with the pruned variant's winner (the paper's
    // main pipeline uses the technique; `_N` rows are the ablation).
    if (with.has_alpha) {
      miner.Accept(base, with.best, with.best_metrics);
    }
  }
  table.Print(std::cout);
  std::printf("\nsearched alphas per unit time: pruning %lld vs no-pruning "
              "%lld (%.1fx)\n",
              static_cast<long long>(total_pruned),
              static_cast<long long>(total_nofp),
              total_nofp > 0 ? static_cast<double>(total_pruned) /
                                   static_cast<double>(total_nofp)
                             : 0.0);
  return 0;
}
