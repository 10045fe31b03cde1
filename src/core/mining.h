#ifndef ALPHAEVOLVE_CORE_MINING_H_
#define ALPHAEVOLVE_CORE_MINING_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/evaluator_pool.h"
#include "core/evolution.h"

namespace alphaevolve::core {

/// One accepted member of the weakly correlated alpha set A.
struct AcceptedAlpha {
  std::string name;
  AlphaProgram program;
  AlphaMetrics metrics;
};

/// One search's counters, keyed by its seed: the per-search record of a
/// mining report. candidates = cache_hits + evaluated + pruned_redundant.
struct SearchStats {
  uint64_t seed = 0;
  int64_t candidates = 0;
  int64_t cache_hits = 0;
  int64_t evaluated = 0;
  int64_t pruned_redundant = 0;
  /// Scenario-fitness accounting (see EvolutionStats): candidates rejected
  /// by the cheap-first screen, and full regime evaluations paid. Both 0
  /// unless a CandidateScorer is installed.
  int64_t screened_out = 0;
  int64_t scenario_evals = 0;
  /// Evaluations abandoned by the watchdog (see EvolutionStats).
  int64_t eval_timeouts = 0;

  /// The one conversion point from a search's EvolutionStats — keeps the
  /// duplicated field lists (here, the examples' per-search reports) from
  /// drifting as counters are added.
  static SearchStats FromEvolution(uint64_t seed, const EvolutionStats& s) {
    SearchStats out;
    out.seed = seed;
    out.candidates = s.candidates;
    out.cache_hits = s.cache_hits;
    out.evaluated = s.evaluated;
    out.pruned_redundant = s.pruned_redundant;
    out.screened_out = s.screened_out;
    out.scenario_evals = s.scenario_evals;
    out.eval_timeouts = s.eval_timeouts;
    return out;
  }
};

/// Multi-round weakly-correlated alpha mining (paper §5.4.1): each round
/// runs searches with the 15% correlation cutoff against everything already
/// in A; the best result (by validation Sharpe ratio, as the paper selects
/// "the best alpha with the highest Sharpe ratio") is accepted into A, which
/// raises the difficulty of subsequent rounds.
class WeaklyCorrelatedMiner {
 public:
  /// `base_config`'s cutoff and budgets apply to every search; per-search
  /// seeds are derived from it. Every search scores on `pool` and shares
  /// its workers: a single search scores its batches in parallel, and
  /// RunSearches additionally runs whole searches concurrently on the same
  /// pool. On a one-thread pool everything runs on the caller.
  WeaklyCorrelatedMiner(EvaluatorPool& pool, EvolutionConfig base_config);

  /// Runs one evolutionary search initialized from `init`, with the current
  /// accepted set as the correlation cutoff reference. `checkpoint_sink`
  /// (optional) receives committed-state snapshots at batch barriers;
  /// `resume` (optional) re-enters a snapshot a previous process wrote —
  /// both as in SearchSpec below.
  EvolutionResult RunSearch(const AlphaProgram& init, uint64_t seed,
                            CheckpointSink* checkpoint_sink = nullptr,
                            const EvolutionCheckpoint* resume = nullptr);

  /// One (initialization, seed) pair of a multi-seed round.
  struct SearchSpec {
    AlphaProgram init;
    uint64_t seed = 0;
    /// Optional crash tolerance: a sink that snapshots this search at its
    /// batch-commit barriers (e.g. a ckpt::CheckpointWriter with a
    /// per-search file stem), and a snapshot to resume from.
    CheckpointSink* checkpoint_sink = nullptr;
    const EvolutionCheckpoint* resume = nullptr;
  };

  /// Runs every spec against the current accepted set and returns results
  /// in spec order. On a pool with worker threads the searches run
  /// concurrently; each is an independent deterministic stream with its own
  /// cache, so candidate-bounded searches (max_candidates > 0) give results
  /// and stats identical to running them serially.
  /// Time-budgeted searches (time_budget_seconds) contend for the shared
  /// workers, so each covers fewer candidates per wall-second than it
  /// would alone. Accept must not be called while this runs.
  ///
  /// base_config.pipeline_depth composes with the concurrent round: at depth
  /// >= 1 each search's driving task generates its next batch while its
  /// previous one evaluates, all on the same pool (TaskGroup waits, the
  /// searches' own and ParallelFor's join alike, help drain the shared
  /// queue, so the nesting cannot deadlock). Results remain per-search
  /// deterministic at any depth, lockstep depth 0 included.
  std::vector<EvolutionResult> RunSearches(
      const std::vector<SearchSpec>& specs);

  /// Admits an alpha into A.
  void Accept(std::string name, const AlphaProgram& program,
              const AlphaMetrics& metrics);

  /// Optional observer invoked synchronously on the caller after each
  /// Accept, with the newly admitted member. The canonical use is
  /// out-of-regime scoring: wire a scenario::RobustnessEvaluator here so
  /// every alpha entering A is immediately stress-tested across a market
  /// suite (see examples/stress_alpha_set). Core stays free of a scenario
  /// dependency; the hook owner brings its own machinery.
  void set_accept_hook(std::function<void(const AcceptedAlpha&)> hook) {
    accept_hook_ = std::move(hook);
  }

  /// Installs a pluggable per-candidate fitness (scenario::ScenarioFitness)
  /// on every search this miner runs — stress-in-the-loop, vs. the
  /// accept-hook's stress-on-accept. The scorer must be thread-safe and
  /// outlive the miner's runs; nullptr restores plain baseline fitness.
  void UseCandidateScorer(CandidateScorer* scorer) { scorer_ = scorer; }

  /// Signed correlation (on validation portfolio returns) with the
  /// most-correlated member of A; NaN if A is empty — the per-alpha
  /// "Correlation with the best alphas" column of Tables 2/3.
  double CorrelationWithAccepted(const AlphaMetrics& metrics) const;

  const std::vector<AcceptedAlpha>& accepted() const { return accepted_; }
  const EvolutionConfig& base_config() const { return base_config_; }

 private:
  /// Snapshot of the accepted validation-return series (the cutoff set).
  std::vector<std::vector<double>> AcceptedReturns() const;
  EvolutionResult RunOne(const AlphaProgram& init, uint64_t seed,
                         std::vector<std::vector<double>> accepted_returns,
                         CheckpointSink* checkpoint_sink = nullptr,
                         const EvolutionCheckpoint* resume = nullptr);

  EvaluatorPool& pool_;
  CandidateScorer* scorer_ = nullptr;  ///< optional scenario fitness
  EvolutionConfig base_config_;
  std::vector<AcceptedAlpha> accepted_;
  std::function<void(const AcceptedAlpha&)> accept_hook_;
};

}  // namespace alphaevolve::core

#endif  // ALPHAEVOLVE_CORE_MINING_H_
