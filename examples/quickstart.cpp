// Quickstart: simulate a market, evolve an alpha from the expert
// initialization, and report IC / Sharpe / the evolved program.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>
#include <iostream>

#include "core/evaluator_pool.h"
#include "core/evolution.h"
#include "core/generators.h"
#include "core/mining.h"
#include "eval/portfolio.h"
#include "market/dataset.h"

using namespace alphaevolve;

int main() {
  // 1. A synthetic NASDAQ-like market (see DESIGN.md for the substitution
  //    rationale) and the paper's dataset layout.
  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = 48;
  mc.num_days = 300;
  mc.seed = 7;
  market::Dataset dataset = market::Dataset::Simulate(mc, {});
  std::printf("dataset: %d stocks x %d days (%zu train / %zu valid / %zu test)\n",
              dataset.num_tasks(), dataset.num_days(),
              dataset.dates(market::Split::kTrain).size(),
              dataset.dates(market::Split::kValid).size(),
              dataset.dates(market::Split::kTest).size());

  // 2. An evaluator: one-epoch training, IC fitness, long-short portfolio.
  core::EvaluatorConfig ec;
  core::Evaluator evaluator(dataset, ec);

  // 3. The domain-expert starting alpha, scored before evolution.
  core::Mutator mutator{core::MutatorConfig{}};
  Rng rng(1);
  const core::AlphaProgram expert =
      core::MakeInitialAlpha(core::InitKind::kExpert, mutator, rng);
  core::AlphaMetrics before = evaluator.Evaluate(expert, /*seed=*/1);
  std::printf("\nexpert alpha before evolving: IC(valid)=%.4f Sharpe(test)=%.3f\n",
              before.ic_valid, before.sharpe_test);

  // 4. Evolve it, on a one-thread pool: every batch is scored inline.
  core::EvaluatorPool pool(dataset, ec, /*num_threads=*/1);
  core::EvolutionConfig cfg;
  cfg.max_candidates = 1500;
  cfg.seed = 11;
  core::Evolution evolution(pool, cfg);
  core::EvolutionResult result = evolution.Run(expert);

  if (!result.has_alpha) {
    std::printf("search failed to find a valid alpha\n");
    return 1;
  }
  std::printf("\nevolved alpha: IC(valid)=%.4f IC(test)=%.4f Sharpe(test)=%.3f\n",
              result.best_metrics.ic_valid, result.best_metrics.ic_test,
              result.best_metrics.sharpe_test);
  std::printf("searched=%lld evaluated=%lld pruned=%lld cache_hits=%lld\n",
              static_cast<long long>(result.stats.candidates),
              static_cast<long long>(result.stats.evaluated),
              static_cast<long long>(result.stats.pruned_redundant),
              static_cast<long long>(result.stats.cache_hits));
  std::printf("\n--- evolved program ---\n%s", result.best.ToString().c_str());
  return 0;
}
