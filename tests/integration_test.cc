// End-to-end and cross-module properties: the full mine → accept → re-mine
// pipeline, pruning/execution equivalence under mutation, and the
// relational regime break of the market simulator.

#include <cmath>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/evaluator_pool.h"
#include "core/evolution.h"
#include "core/generators.h"
#include "core/mining.h"
#include "core/pruning.h"
#include "eval/metrics.h"
#include "ga/genetic.h"
#include "market/simulator.h"

namespace alphaevolve {
namespace {

market::Dataset SmallMarket(uint64_t seed, double relation_break = 0.0) {
  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = 32;
  mc.num_days = 260;
  mc.seed = seed;
  mc.relation_break_fraction = relation_break;
  return market::Dataset::Simulate(mc, {});
}

TEST(IntegrationTest, FullMiningPipelineProducesWeaklyCorrelatedSet) {
  const market::Dataset ds = SmallMarket(3);
  core::EvaluatorPool pool(ds, core::EvaluatorConfig{}, 1);
  core::EvolutionConfig cfg;
  cfg.max_candidates = 700;
  core::WeaklyCorrelatedMiner miner(pool, cfg);

  int accepted = 0;
  for (int round = 0; round < 3; ++round) {
    const auto r = miner.RunSearch(core::MakeExpertAlpha(ds.window()),
                                   static_cast<uint64_t>(round) + 11);
    if (!r.has_alpha) continue;
    miner.Accept("a" + std::to_string(round), r.best, r.best_metrics);
    ++accepted;
  }
  ASSERT_GE(accepted, 2);
  // The set invariant: pairwise weak correlation at the 15% cutoff.
  const auto& a = miner.accepted();
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = i + 1; j < a.size(); ++j) {
      const double corr = eval::PortfolioCorrelation(
          a[i].metrics.valid_portfolio_returns,
          a[j].metrics.valid_portfolio_returns);
      EXPECT_LE(std::abs(corr), 0.15 + 1e-9)
          << a[i].name << " vs " << a[j].name;
    }
  }
}

TEST(IntegrationTest, PrunedAndFullProgramsScoreIdentically) {
  // Metamorphic: for deterministic programs, adding dead code must not
  // change the evaluation. Run many mutated variants of the expert alpha.
  const market::Dataset ds = SmallMarket(5);
  core::Evaluator evaluator(ds, core::EvaluatorConfig{});
  core::MutatorConfig mcfg;
  core::Mutator mutator(mcfg);
  Rng rng(7);
  const core::ProgramLimits limits;

  int compared = 0;
  for (int trial = 0; trial < 60 && compared < 12; ++trial) {
    core::AlphaProgram prog = core::MakeExpertAlpha(ds.window());
    for (int i = 0; i < 4; ++i) prog = mutator.Mutate(prog, rng);
    // Only deterministic programs: random ops consume RNG differently in
    // pruned vs full form.
    bool has_random = false;
    for (auto c : {core::ComponentId::kSetup, core::ComponentId::kPredict,
                   core::ComponentId::kUpdate}) {
      for (const auto& ins : prog.component(c)) {
        if (core::GetOpInfo(ins.op).is_random) has_random = true;
      }
    }
    if (has_random) continue;
    const auto pr = core::PruneRedundant(prog, limits);
    if (pr.redundant || pr.num_pruned_instructions == 0) continue;
    const auto full = evaluator.Evaluate(prog, 1);
    const auto pruned = evaluator.Evaluate(pr.pruned, 1);
    ASSERT_EQ(full.valid, pruned.valid);
    if (full.valid) {
      EXPECT_NEAR(full.ic_valid, pruned.ic_valid, 1e-12);
      EXPECT_NEAR(full.ic_test, pruned.ic_test, 1e-12);
    }
    ++compared;
  }
  EXPECT_GE(compared, 5);  // the sweep must actually have tested something
}

TEST(IntegrationTest, RelationBreakChangesReturnsAfterBreakDayOnly) {
  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = 16;
  mc.num_days = 200;
  mc.seed = 9;
  mc.delist_fraction = 0.0;
  mc.penny_fraction = 0.0;

  Rng rng_a(mc.seed), rng_b(mc.seed);
  const auto universe_a = market::Universe::Generate(mc, rng_a);
  const auto universe_b = market::Universe::Generate(mc, rng_b);
  market::MarketConfig broken = mc;
  broken.relation_break_fraction = 0.5;
  const auto panel_a = market::MarketSimulator::Simulate(mc, universe_a, rng_a);
  const auto panel_b =
      market::MarketSimulator::Simulate(broken, universe_b, rng_b);

  const int break_day = 100;
  // Identical before the break...
  for (int t = 0; t < break_day; ++t) {
    EXPECT_DOUBLE_EQ(panel_a[0].bars[static_cast<size_t>(t)].close,
                     panel_b[0].bars[static_cast<size_t>(t)].close);
  }
  // ...and diverged afterwards (beta re-draws consume the RNG stream).
  int diffs = 0;
  for (int t = break_day; t < mc.num_days; ++t) {
    if (panel_a[0].bars[static_cast<size_t>(t)].close !=
        panel_b[0].bars[static_cast<size_t>(t)].close) {
      ++diffs;
    }
  }
  EXPECT_GT(diffs, 50);
}

TEST(IntegrationTest, EvolutionBeatsGaOnRelationalSignalMarket) {
  // The paper's headline: with relational + long-term-feature signal in the
  // market, AlphaEvolve's search space pays off against formulaic GP given
  // the same candidate budget.
  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = 48;
  mc.num_days = 320;
  mc.seed = 23;
  mc.mean_reversion_strength = 0.02;
  mc.momentum_strength = 0.08;  // mostly reachable only via relation ops
  const market::Dataset ds = market::Dataset::Simulate(mc, {});

  core::EvaluatorPool pool(ds, core::EvaluatorConfig{}, 1);
  core::EvolutionConfig cfg;
  cfg.max_candidates = 2500;
  cfg.seed = 3;
  core::Evolution evo(pool, cfg);
  const auto ae = evo.Run(core::MakeExpertAlpha(ds.window()));
  ASSERT_TRUE(ae.has_alpha);

  ga::GaConfig gcfg;
  gcfg.max_candidates = 2500;
  gcfg.seed = 3;
  ga::GeneticAlgorithm gp(ds, gcfg);
  const auto g = gp.Run();
  ASSERT_TRUE(g.has_alpha);

  EXPECT_GT(ae.best_fitness, g.best_fitness);
}

}  // namespace
}  // namespace alphaevolve
