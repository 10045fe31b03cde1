#ifndef ALPHAEVOLVE_TESTS_REFERENCE_EVOLUTION_H_
#define ALPHAEVOLVE_TESTS_REFERENCE_EVOLUTION_H_

// The evolution driver's reference semantics, for tests only: batched
// regularized evolution (paper §3) with redundancy pruning, the fingerprint
// cache and the weak-correlation cutoff, run serially in lockstep. It is the
// oracle core::Evolution must match bit for bit at every pipeline depth and
// thread count (pipelined_evolution_test, parallel_evolution_test,
// scenario_fitness_test), so it shares none of the driver's machinery: no
// pool, in-flight frontier, pending members, checkpoint, stop token, time
// budget or telemetry. It is built from public pieces only and never
// constructs an Evolution.
//
// Per batch: size it (batch_size, clamped so the candidate count lands on
// max_candidates and P0 never overshoots population_size); draw all B
// parents against the pre-batch population (P0 mutates the starting
// parent); then score and commit the children one at a time, in batch
// order, against a plain std::map cache. An intra-batch duplicate is thus a
// cache hit on an earlier child's insert.
//
// Without a scorer it scores every child with the full Evaluator::Evaluate,
// long-short book included, where core::Evolution builds the book only
// against a non-empty accepted set (Evaluator::EvaluateFitness). The suites
// above thus pin that skipping the book changes no search result: without
// an accepted set (parallel_evolution_test, pipelined_evolution_test) and
// with one (pipelined_evolution_test's CutoffAccountingMatchesSynchronous).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/evolution.h"
#include "core/mutator.h"
#include "core/program.h"
#include "core/pruning.h"
#include "eval/metrics.h"
#include "test_util.h"
#include "util/check.h"
#include "util/rng.h"

namespace alphaevolve::testutil {

/// One reference search: its result (elapsed_seconds stays 0) and the final
/// cache contents sorted by fingerprint, as Evolution::CacheSnapshot lists
/// them.
struct ReferenceSearch {
  core::EvolutionResult result;
  std::vector<std::pair<uint64_t, double>> cache;
};

/// Runs one candidate-bounded search (config.max_candidates > 0, explicit
/// batch_size >= 1) from `init`. `evaluator` scores every candidate — it is
/// the baseline evaluator handed to `scorer` when one is given — and
/// re-scores the winner with test metrics.
inline ReferenceSearch RunReferenceEvolution(
    core::Evaluator& evaluator, const core::EvolutionConfig& config,
    const core::AlphaProgram& init,
    const std::vector<std::vector<double>>& accepted_valid_returns = {},
    core::CandidateScorer* scorer = nullptr) {
  AE_CHECK(config.max_candidates > 0 && config.batch_size >= 1);
  const core::Mutator mutator(config.mutator);
  Rng rng(config.seed);
  std::map<uint64_t, double> cache;
  core::EvolutionResult result;
  core::EvolutionStats& stats = result.stats;
  std::deque<std::pair<core::AlphaProgram, double>> population;
  double best_so_far = core::kInvalidFitness;

  // Scores one child and folds it into the stats; returns its fitness.
  auto score = [&](const core::AlphaProgram& child) -> double {
    ++stats.candidates;
    const core::AlphaProgram* program = &child;
    core::AlphaProgram pruned;
    uint64_t fingerprint, seed;
    if (config.use_pruning) {
      core::PruneResult pr = core::PruneRedundant(child, config.mutator.limits);
      if (pr.redundant) {
        ++stats.pruned_redundant;
        return core::kInvalidFitness;
      }
      pruned = std::move(pr.pruned);
      program = &pruned;
      fingerprint = seed = core::Fingerprint(pruned);
    } else {
      seed = core::HashString(child.ToString());
      fingerprint = evaluator.ProbeFingerprint(child, seed);
    }
    if (const auto hit = cache.find(fingerprint); hit != cache.end()) {
      ++stats.cache_hits;
      return hit->second;
    }
    ++stats.evaluated;
    double fitness = core::kInvalidFitness;
    if (scorer != nullptr) {
      const core::ScoreOutcome out =
          scorer->Score(evaluator, *program, seed, accepted_valid_returns,
                        config.correlation_cutoff);
      fitness = out.fitness;
      stats.cutoff_discarded += out.cutoff_discarded ? 1 : 0;
      stats.screened_out += out.screened_out ? 1 : 0;
      stats.eval_timeouts += out.baseline.timed_out ? 1 : 0;
      stats.scenario_evals += out.regimes_evaluated;
    } else {
      const core::AlphaMetrics m =
          evaluator.Evaluate(*program, seed, /*include_test=*/false);
      stats.eval_timeouts += m.timed_out ? 1 : 0;
      if (m.valid) {
        fitness = m.ic_valid;
        // The weak-correlation cutoff against the accepted set (§5.4.1).
        for (const auto& accepted : accepted_valid_returns) {
          if (std::abs(eval::PortfolioCorrelation(m.valid_portfolio_returns,
                                                  accepted)) >
              config.correlation_cutoff) {
            ++stats.cutoff_discarded;
            fitness = core::kInvalidFitness;
            break;
          }
        }
      }
    }
    cache[fingerprint] = fitness;
    return fitness;
  };

  while (stats.candidates < config.max_candidates) {
    const bool p0 =
        static_cast<int>(population.size()) < config.population_size;
    int64_t b = std::min<int64_t>(config.batch_size,
                                  config.max_candidates - stats.candidates);
    if (p0) {
      b = std::min<int64_t>(
          b, config.population_size - static_cast<int>(population.size()));
    }
    std::vector<core::AlphaProgram> children;
    for (int64_t i = 0; i < b; ++i) {
      if (p0) {
        children.push_back(mutator.Mutate(init, rng));
        continue;
      }
      const int size = static_cast<int>(population.size());
      int best = rng.UniformInt(size);
      for (int t = 1; t < config.tournament_size; ++t) {
        const int idx = rng.UniformInt(size);
        if (population[static_cast<size_t>(idx)].second >
            population[static_cast<size_t>(best)].second) {
          best = idx;
        }
      }
      children.push_back(
          mutator.Mutate(population[static_cast<size_t>(best)].first, rng));
    }
    for (core::AlphaProgram& child : children) {
      const double fitness = score(child);
      best_so_far = std::max(best_so_far, fitness);
      if (config.trajectory_stride > 0 &&
          stats.candidates % config.trajectory_stride == 0) {
        result.trajectory.emplace_back(stats.candidates, best_so_far);
      }
      population.emplace_back(std::move(child), fitness);
      if (!p0) population.pop_front();
    }
  }

  // Final selection: the oldest member with the highest valid fitness,
  // re-scored (pruned form, fingerprint seed) with test metrics.
  const std::pair<core::AlphaProgram, double>* best = nullptr;
  for (const auto& member : population) {
    if (member.second > core::kInvalidFitness &&
        (best == nullptr || member.second > best->second)) {
      best = &member;
    }
  }
  if (best != nullptr) {
    result.has_alpha = true;
    result.best = best->first;
    result.best_fitness = best->second;
    if (config.use_pruning) {
      const core::AlphaProgram pruned =
          core::PruneRedundant(best->first, config.mutator.limits).pruned;
      result.best_metrics =
          evaluator.Evaluate(pruned, core::Fingerprint(pruned), true);
    } else {
      result.best_metrics = evaluator.Evaluate(
          best->first, core::HashString(best->first.ToString()), true);
    }
  }
  return {result, {cache.begin(), cache.end()}};
}

/// Expects two searches to agree bit for bit on everything but wall-clock:
/// the winner and its fitness, every EvolutionStats counter except
/// elapsed_seconds, the winner's baseline metrics and the trajectory.
inline void ExpectSameSearch(const core::EvolutionResult& a,
                             const core::EvolutionResult& b) {
  ASSERT_EQ(a.has_alpha, b.has_alpha);
  EXPECT_EQ(a.stopped, b.stopped);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(Bits(a.best_fitness), Bits(b.best_fitness));
  EXPECT_EQ(a.stats.candidates, b.stats.candidates);
  EXPECT_EQ(a.stats.evaluated, b.stats.evaluated);
  EXPECT_EQ(a.stats.pruned_redundant, b.stats.pruned_redundant);
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
  EXPECT_EQ(a.stats.cutoff_discarded, b.stats.cutoff_discarded);
  EXPECT_EQ(a.stats.screened_out, b.stats.screened_out);
  EXPECT_EQ(a.stats.scenario_evals, b.stats.scenario_evals);
  EXPECT_EQ(a.stats.eval_timeouts, b.stats.eval_timeouts);
  EXPECT_EQ(Bits(a.best_metrics.ic_valid), Bits(b.best_metrics.ic_valid));
  EXPECT_EQ(Bits(a.best_metrics.ic_test), Bits(b.best_metrics.ic_test));
  EXPECT_EQ(Bits(a.best_metrics.sharpe_valid),
            Bits(b.best_metrics.sharpe_valid));
  EXPECT_EQ(Bits(a.best_metrics.sharpe_test),
            Bits(b.best_metrics.sharpe_test));
  EXPECT_EQ(Bits(a.best_metrics.valid_portfolio_returns),
            Bits(b.best_metrics.valid_portfolio_returns));
  ASSERT_EQ(a.trajectory.size(), b.trajectory.size());
  for (size_t i = 0; i < a.trajectory.size(); ++i) {
    EXPECT_EQ(a.trajectory[i].first, b.trajectory[i].first);
    EXPECT_EQ(Bits(a.trajectory[i].second), Bits(b.trajectory[i].second));
  }
}

/// Expects two cache snapshots (sorted (fingerprint, fitness) lists) to hold
/// the same entries with bit-identical fitnesses.
inline void ExpectSameCache(
    const std::vector<std::pair<uint64_t, double>>& a,
    const std::vector<std::pair<uint64_t, double>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_EQ(Bits(a[i].second), Bits(b[i].second));
  }
}

}  // namespace alphaevolve::testutil

#endif  // ALPHAEVOLVE_TESTS_REFERENCE_EVOLUTION_H_
