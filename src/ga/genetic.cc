#include "ga/genetic.h"

#include <algorithm>
#include <chrono>

#include "eval/metrics.h"
#include "util/check.h"
#include "util/stats.h"

namespace alphaevolve::ga {
namespace {

using Clock = std::chrono::steady_clock;

/// Predictions of `tree` for every (date, task).
std::vector<std::vector<double>> Predict(const market::Dataset& dataset,
                                         const std::vector<int>& dates,
                                         const GpNode& tree) {
  std::vector<std::vector<double>> preds;
  preds.reserve(dates.size());
  const int num_tasks = dataset.num_tasks();
  for (int date : dates) {
    std::vector<double> row(static_cast<size_t>(num_tasks));
    for (int k = 0; k < num_tasks; ++k) {
      row[static_cast<size_t>(k)] = tree.Eval(dataset.FeatureRow(k, date));
    }
    preds.push_back(std::move(row));
  }
  return preds;
}

}  // namespace

GeneticAlgorithm::GeneticAlgorithm(
    const market::Dataset& dataset, GaConfig config,
    std::vector<std::vector<double>> accepted_valid_returns)
    : dataset_(dataset),
      config_(config),
      accepted_valid_returns_(std::move(accepted_valid_returns)) {
  AE_CHECK(config_.population_size >= 2);
  AE_CHECK(config_.tournament_size >= 1 &&
           config_.tournament_size <= config_.population_size);
  const double p_total = config_.p_crossover + config_.p_subtree_mutation +
                         config_.p_hoist_mutation + config_.p_point_mutation;
  AE_CHECK_MSG(p_total <= 1.0 + 1e-9, "method probabilities exceed 1");
}

double GeneticAlgorithm::Score(const GpNode& tree) {
  ++stats_.evaluated;
  const auto& valid_dates = dataset_.dates(market::Split::kValid);
  const auto preds = Predict(dataset_, valid_dates, tree);
  for (const auto& row : preds) {
    if (!AllFinite(row)) return -1.0;
  }
  const double ic = eval::InformationCoefficient(dataset_, valid_dates, preds);
  if (!accepted_valid_returns_.empty() &&
      eval::BreaksCorrelationCutoff(
          eval::RunBacktest(dataset_, valid_dates, preds, config_.portfolio,
                            eval::CostConfig{})
              .gross,
          accepted_valid_returns_, config_.correlation_cutoff)) {
    ++stats_.cutoff_discarded;
    return -1.0;
  }
  return ic;
}

const GeneticAlgorithm::Individual& GeneticAlgorithm::Tournament(
    const std::vector<Individual>& pop, Rng& rng) {
  int best = rng.UniformInt(static_cast<int>(pop.size()));
  for (int t = 1; t < config_.tournament_size; ++t) {
    const int idx = rng.UniformInt(static_cast<int>(pop.size()));
    if (pop[static_cast<size_t>(idx)].fitness >
        pop[static_cast<size_t>(best)].fitness) {
      best = idx;
    }
  }
  return pop[static_cast<size_t>(best)];
}

std::unique_ptr<GpNode> GeneticAlgorithm::MakeOffspring(
    const std::vector<Individual>& pop, Rng& rng) {
  const int num_features = dataset_.num_features();
  std::unique_ptr<GpNode> child = Tournament(pop, rng).tree->Clone();
  const double u = rng.Uniform();
  const double c1 = config_.p_crossover;
  const double c2 = c1 + config_.p_subtree_mutation;
  const double c3 = c2 + config_.p_hoist_mutation;
  const double c4 = c3 + config_.p_point_mutation;

  if (u < c1) {
    // Crossover: replace a random subtree with a random donor subtree.
    const Individual& donor = Tournament(pop, rng);
    GpNode* target = NthNode(child.get(), rng.UniformInt(child->CountNodes()));
    const GpNode* source =
        NthNode(donor.tree.get(), rng.UniformInt(donor.tree->CountNodes()));
    *target = std::move(*source->Clone());
  } else if (u < c2) {
    // Subtree mutation: replace a random subtree with a random tree.
    GpNode* target = NthNode(child.get(), rng.UniformInt(child->CountNodes()));
    *target = std::move(*RandomTree(rng, num_features,
                                    config_.init_depth_max,
                                    /*full=*/false));
  } else if (u < c3) {
    // Hoist mutation: replace a subtree by one of its own subtrees.
    GpNode* target = NthNode(child.get(), rng.UniformInt(child->CountNodes()));
    GpNode* inner = NthNode(target, rng.UniformInt(target->CountNodes()));
    *target = std::move(*inner->Clone());
  } else if (u < c4) {
    // Point mutation: each node re-drawn (same arity) with p_point_replace.
    const int n = child->CountNodes();
    for (int i = 0; i < n; ++i) {
      if (!rng.Bernoulli(config_.p_point_replace)) continue;
      GpNode* node = NthNode(child.get(), i);
      const int arity = GpArity(node->op);
      if (arity == 0) {
        if (rng.Bernoulli(0.8)) {
          node->op = GpOp::kFeature;
          node->feature = rng.UniformInt(num_features);
        } else {
          node->op = GpOp::kConst;
          node->value = rng.Uniform(-1.0, 1.0);
        }
      } else {
        for (;;) {
          const int first = static_cast<int>(GpOp::kAdd);
          const int last = static_cast<int>(GpOp::kTan);
          const auto op = static_cast<GpOp>(rng.UniformInt(first, last));
          if (GpArity(op) == arity) {
            node->op = op;
            break;
          }
        }
      }
    }
  }
  // else: reproduction (unchanged clone).

  // Depth guard, as gplearn applies to crossover/mutation results.
  if (child->Depth() > config_.max_depth) {
    child = RandomTree(rng, num_features, config_.init_depth_max,
                       /*full=*/false);
  }
  return child;
}

GaResult GeneticAlgorithm::Run() {
  Rng rng(config_.seed);
  stats_ = GaStats{};
  const auto start = Clock::now();
  GaResult result;

  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  auto out_of_budget = [&] {
    if (config_.max_candidates > 0 &&
        stats_.candidates >= config_.max_candidates) {
      return true;
    }
    return config_.time_budget_seconds > 0.0 &&
           elapsed() >= config_.time_budget_seconds;
  };

  double best_so_far = -1.0;
  auto record = [&](double fitness) {
    best_so_far = std::max(best_so_far, fitness);
    if (config_.trajectory_stride > 0 &&
        stats_.candidates % config_.trajectory_stride == 0) {
      result.trajectory.emplace_back(stats_.candidates, best_so_far);
    }
  };

  // Ramped half-and-half initialization.
  std::vector<Individual> population;
  population.reserve(static_cast<size_t>(config_.population_size));
  for (int i = 0; i < config_.population_size && !out_of_budget(); ++i) {
    Individual ind;
    const int depth =
        rng.UniformInt(config_.init_depth_min, config_.init_depth_max);
    ind.tree = RandomTree(rng, dataset_.num_features(), depth,
                          /*full=*/rng.Bernoulli(0.5));
    ++stats_.candidates;
    ind.fitness = Score(*ind.tree);
    record(ind.fitness);
    population.push_back(std::move(ind));
  }

  // Generational loop.
  while (!out_of_budget() && !population.empty()) {
    std::vector<Individual> next;
    next.reserve(population.size());
    for (int i = 0; i < config_.population_size && !out_of_budget(); ++i) {
      Individual ind;
      ind.tree = MakeOffspring(population, rng);
      ++stats_.candidates;
      ind.fitness = Score(*ind.tree);
      record(ind.fitness);
      next.push_back(std::move(ind));
    }
    if (next.empty()) break;
    population = std::move(next);
  }

  stats_.elapsed_seconds = elapsed();
  result.stats = stats_;

  const Individual* best = nullptr;
  for (const Individual& ind : population) {
    if (ind.fitness > -1.0 && (best == nullptr ||
                               ind.fitness > best->fitness)) {
      best = &ind;
    }
  }
  if (best != nullptr) {
    result.has_alpha = true;
    result.best_expression = best->tree->ToString();
    result.best_fitness = best->fitness;
    // The search builds a book only against an accepted set, so the
    // winner's is built here, once.
    const auto& valid_dates = dataset_.dates(market::Split::kValid);
    result.valid_portfolio_returns =
        eval::RunBacktest(dataset_, valid_dates,
                          Predict(dataset_, valid_dates, *best->tree),
                          config_.portfolio, eval::CostConfig{})
            .gross;
    const auto& test_dates = dataset_.dates(market::Split::kTest);
    const auto test_preds = Predict(dataset_, test_dates, *best->tree);
    result.ic_test =
        eval::InformationCoefficient(dataset_, test_dates, test_preds);
    result.test_portfolio_returns =
        eval::RunBacktest(dataset_, test_dates, test_preds, config_.portfolio,
                          eval::CostConfig{})
            .gross;
    result.sharpe_test = eval::SharpeRatio(result.test_portfolio_returns);
  }
  return result;
}

}  // namespace alphaevolve::ga
