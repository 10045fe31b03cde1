#ifndef ALPHAEVOLVE_SCENARIO_SCENARIO_FITNESS_H_
#define ALPHAEVOLVE_SCENARIO_SCENARIO_FITNESS_H_

#include <memory>
#include <vector>

#include "core/evaluator.h"
#include "core/evaluator_pool.h"
#include "market/dataset.h"
#include "scenario/panel_overlay.h"
#include "scenario/scenario.h"
#include "util/threadpool.h"

namespace alphaevolve::scenario {

/// Stress-in-the-loop fitness: scores every candidate across the suite's
/// regimes (over copy-on-write PanelOverlay views) *inside* the evolutionary
/// loop, instead of stress-testing only accepted alphas after the fact.
///
/// Scoring is staged cheap-first, the pruning idea one level up:
///
///   1. baseline evaluation — on the worker's own leased evaluator (whose
///      pool the glue builds over `baseline_panel()`), with the candidate's
///      raw seed: a full validation-side Evaluate, long-short book included;
///   2. the weak-correlation cutoff against the accepted set, on the
///      baseline validation returns (as today);
///   3. the static screen: baseline ic_valid < screen_min_ic rejects before
///      any regime cost is paid (skipped with a single-regime suite, so
///      single-scenario mode reproduces the plain driver exactly);
///   4. fan-out: the surviving candidate is evaluated on regimes 1..S-1,
///      work-stolen across `fanout_pool()` (serial without one), each regime
///      on its own single-evaluator pool with seed RegimeSeed(seed, i, spec),
///      through EvaluateFitness: the book (for its turnover) only under
///      kCostAdjusted, the IC alone otherwise;
///   5. aggregation in suite order (worst-case / mean / cost-adjusted).
///
/// Score is a pure function of (program, seed): regime evaluations are
/// deterministic, the fan-out writes into pre-sized slots and aggregates in
/// suite order, and the screen threshold is static — so results are
/// bit-identical at any thread count and pipeline depth.
///
/// Thread-safe: concurrent Score calls lease disjoint evaluators; the only
/// shared state is immutable after construction.
class ScenarioFitness : public core::CandidateScorer {
 public:
  /// Simulates the base panel once (PanelOverlay) and prepares one
  /// single-evaluator pool per non-baseline regime. Regime evaluators
  /// inherit `eval_config` (costs included: kCostAdjusted wants net-aware
  /// evaluators).
  ScenarioFitness(const ScenarioSuite& suite, const market::DatasetConfig& dc,
                  const core::EvaluatorConfig& eval_config,
                  core::ScenarioFitnessOptions options);

  /// The regime-0 dataset — build the mining EvaluatorPool over this, so
  /// the evaluator Evolution leases to Score *is* the baseline evaluator.
  const market::Dataset& baseline_panel() const { return overlay_.panel(0); }

  const PanelOverlay& panels() const { return overlay_; }
  int num_regimes() const { return overlay_.num_panels(); }
  const core::ScenarioFitnessOptions& options() const { return options_; }

  /// Workers for the regime fan-out — pass the mining pool's thread_pool()
  /// so regime evaluations are work-stolen alongside candidate evaluations
  /// (nullptr = evaluate regimes serially on the calling worker). The pool's
  /// helping waits make the nested fan-out deadlock-free.
  void set_fanout_pool(ThreadPool* pool) { fanout_pool_ = pool; }
  ThreadPool* fanout_pool() const { return fanout_pool_; }

  core::ScoreOutcome Score(
      core::Evaluator& baseline_evaluator, const core::AlphaProgram& program,
      uint64_t seed,
      const std::vector<std::vector<double>>& accepted_valid_returns,
      double correlation_cutoff) override;

 private:
  core::ScenarioFitnessOptions options_;
  PanelOverlay overlay_;
  /// One per regime 1..S-1 (index i-1): num_threads == 1, so no owned
  /// threads — concurrency comes from Score's fan-out leasing them.
  std::vector<std::unique_ptr<core::EvaluatorPool>> regime_pools_;
  ThreadPool* fanout_pool_ = nullptr;
};

}  // namespace alphaevolve::scenario

#endif  // ALPHAEVOLVE_SCENARIO_SCENARIO_FITNESS_H_
