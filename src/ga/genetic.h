#ifndef ALPHAEVOLVE_GA_GENETIC_H_
#define ALPHAEVOLVE_GA_GENETIC_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/portfolio.h"
#include "ga/expr.h"
#include "market/dataset.h"
#include "util/rng.h"

namespace alphaevolve::ga {

/// gplearn-style configuration; the operator probabilities follow the
/// paper's §5.2 baseline settings: crossover 0.4, subtree mutation 0.01,
/// hoist mutation 0, point mutation 0.01 (the remainder reproduces the
/// parent unchanged) and a per-node point-replace probability of 0.4.
struct GaConfig {
  int population_size = 100;
  int tournament_size = 10;
  double p_crossover = 0.4;
  double p_subtree_mutation = 0.01;
  double p_hoist_mutation = 0.0;
  double p_point_mutation = 0.01;
  double p_point_replace = 0.4;
  int init_depth_min = 2;
  int init_depth_max = 6;
  int max_depth = 17;

  /// Candidate budget (individuals generated across generations) and/or
  /// wall-clock budget; the search stops at whichever is hit first.
  int64_t max_candidates = 2000;
  double time_budget_seconds = 0.0;

  double correlation_cutoff = 0.15;
  eval::PortfolioConfig portfolio;
  uint64_t seed = 42;
  int64_t trajectory_stride = 50;
};

/// Search counters (comparable with core::EvolutionStats).
struct GaStats {
  int64_t candidates = 0;
  int64_t evaluated = 0;
  int64_t cutoff_discarded = 0;
  double elapsed_seconds = 0.0;
};

struct GaResult {
  bool has_alpha = false;
  std::string best_expression;
  double best_fitness = -1.0;      ///< IC on the validation split.
  double ic_test = 0.0;
  double sharpe_test = 0.0;
  std::vector<double> valid_portfolio_returns;
  std::vector<double> test_portfolio_returns;
  GaStats stats;
  std::vector<std::pair<int64_t, double>> trajectory;
};

/// The genetic-algorithm alpha-mining baseline (`alpha_G`): generational GP
/// over formulaic expressions of the 13 most-recent-day features, tournament
/// selection, IC fitness on the validation split, and the same
/// weak-correlation cutoff as AlphaEvolve.
class GeneticAlgorithm {
 public:
  GeneticAlgorithm(const market::Dataset& dataset, GaConfig config,
                   std::vector<std::vector<double>> accepted_valid_returns = {});

  GaResult Run();

 private:
  struct Individual {
    std::unique_ptr<GpNode> tree;
    double fitness = -1.0;
  };

  /// IC on the validation dates, or -1 for a non-finite or cut-off tree.
  /// The long-short book is built only when the cutoff can read it: against
  /// a non-empty accepted set.
  double Score(const GpNode& tree);
  std::unique_ptr<GpNode> MakeOffspring(const std::vector<Individual>& pop,
                                        Rng& rng);
  const Individual& Tournament(const std::vector<Individual>& pop, Rng& rng);

  const market::Dataset& dataset_;
  GaConfig config_;
  std::vector<std::vector<double>> accepted_valid_returns_;
  GaStats stats_;
};

}  // namespace alphaevolve::ga

#endif  // ALPHAEVOLVE_GA_GENETIC_H_
