#ifndef ALPHAEVOLVE_CORE_EVALUATOR_H_
#define ALPHAEVOLVE_CORE_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "core/executor.h"
#include "core/program.h"
#include "eval/portfolio.h"
#include "market/dataset.h"

namespace alphaevolve::core {

/// Fitness assigned to alphas that cannot be scored: non-finite predictions,
/// redundant dataflow, or correlation-cutoff violations. Below any
/// achievable IC (ICs live in [-1, 1] but evolved alphas score ≪ 1).
inline constexpr double kInvalidFitness = -1.0;

/// What one evaluation found out about an alpha. Gross numbers ignore
/// transaction costs (the paper's setting); the `_net` Sharpe ratios and
/// mean turnovers come from the cost model in `EvaluatorConfig::costs` and
/// coincide with gross when it is disabled.
///
/// Evaluator::Evaluate fills every field (the test side only when asked).
/// A search's Evaluator::EvaluateFitness without the long-short book fills
/// only `valid`, `timed_out` and `ic_valid`; the Sharpe ratios, turnovers
/// and return series then stay zero and empty.
struct AlphaMetrics {
  bool valid = false;
  /// Abandoned by the evaluation watchdog (EvaluatorConfig::
  /// eval_budget_seconds); always invalid when set.
  bool timed_out = false;
  double ic_valid = kInvalidFitness;   ///< Fitness (paper Eq. 1, on S_v).
  double ic_test = 0.0;
  double sharpe_valid = 0.0;
  double sharpe_test = 0.0;
  double sharpe_valid_net = 0.0;
  double sharpe_test_net = 0.0;
  double mean_turnover_valid = 0.0;  ///< Mean day-over-day book turnover.
  double mean_turnover_test = 0.0;
  std::vector<double> valid_portfolio_returns;  ///< For the 15% cutoff.
  std::vector<double> test_portfolio_returns;
};

struct EvaluatorConfig {
  ExecutorConfig executor;
  eval::PortfolioConfig portfolio;
  eval::CostConfig costs;  ///< Disabled by default (gross == net).

  /// Per-candidate wall-clock budget for one full evaluation (the
  /// evaluation watchdog; see Executor::Run). 0 (the default) disarms it.
  /// An over-budget candidate comes back invalid with timed_out set and is
  /// counted in EvolutionStats::eval_timeouts instead of hanging its batch.
  /// Arming it makes results machine-speed dependent — long unattended
  /// campaigns want it; bit-reproducible/resumable experiments do not.
  double eval_budget_seconds = 0.0;
};

/// How a multi-regime scorer folds per-regime metrics into one fitness.
enum class ScenarioAggregation {
  kWorstCase,     ///< min over regimes of ic_valid — durable alphas only.
  kMean,          ///< mean over regimes of ic_valid.
  kCostAdjusted,  ///< mean ic_valid − kCostPenalty × mean valid turnover.
};

/// Penalty per unit of mean valid turnover under kCostAdjusted.
inline constexpr double kCostPenalty = 0.1;

/// Knobs of the staged scenario fitness; scenario::ScenarioFitness takes
/// them in its constructor.
struct ScenarioFitnessOptions {
  /// Evaluate the baseline regime first and reject candidates below
  /// `screen_min_ic` before paying for the remaining regimes — the pruning
  /// analog one level up. Valid ICs lie in [-1, 1], so -1 turns the screen
  /// off. The threshold is static by design: screening against a moving
  /// best-so-far would make fitness depend on evaluation order and break
  /// pipeline-depth/thread-count determinism.
  double screen_min_ic = 0.0;

  ScenarioAggregation aggregation = ScenarioAggregation::kWorstCase;
};

/// What a CandidateScorer decided about one candidate.
struct ScoreOutcome {
  /// Baseline-regime metrics — what the zoo reports and the correlation
  /// cutoff was applied to. A full validation-side Evaluate, book included,
  /// whether or not the accepted set is empty (callers compare its IC,
  /// Sharpe and gross series with their own evaluation). `fitness` is the
  /// scorer's aggregate and is what evolution selects on; it need not equal
  /// baseline.ic_valid.
  AlphaMetrics baseline;
  double fitness = kInvalidFitness;
  bool cutoff_discarded = false;  ///< Failed the weak-correlation cutoff.
  bool screened_out = false;      ///< Rejected by the cheap-first screen.
  int regimes_evaluated = 0;      ///< Full evaluations actually paid for.
};

class Evaluator;

/// Pluggable fitness: evolution hands the scorer a leased baseline evaluator
/// plus the cutoff state and receives the fitness to select on. The default
/// (no scorer installed) is plain baseline ic_valid. Implementations must be
/// thread-safe — the evolution driver calls Score from many pool workers at
/// once — and deterministic in (program, seed) alone, never in call order.
class CandidateScorer {
 public:
  virtual ~CandidateScorer() = default;
  virtual ScoreOutcome Score(
      Evaluator& baseline_evaluator, const AlphaProgram& program,
      uint64_t seed,
      const std::vector<std::vector<double>>& accepted_valid_returns,
      double correlation_cutoff) = 0;
};

/// Scores alphas on a dataset: one-epoch training + validation IC as the
/// evolutionary fitness, long-short portfolio returns and Sharpe for the
/// weak-correlation cutoff and the paper's tables.
///
/// Two entry points. Evaluate computes everything, for reports, the
/// service's `backtest` and `stress` ops and a search's final re-evaluation
/// of its winner. EvaluateFitness is the search's: it pays for the
/// long-short book only when its caller reads the book.
///
/// Not thread-safe (owns its Executor); use one per thread. An evaluation
/// runs on the calling thread and the evaluator never spawns threads.
class Evaluator {
 public:
  Evaluator(const market::Dataset& dataset, EvaluatorConfig config);

  /// Full evaluation. `seed` drives any random-init ops deterministically
  /// (evolution passes the program fingerprint). When `include_test` is
  /// false the test-side fields are left zero/empty.
  AlphaMetrics Evaluate(const AlphaProgram& program, uint64_t seed,
                        bool include_test = true);

  /// Validation-side evaluation for a search. With `with_book` it returns
  /// exactly Evaluate(program, seed, false). Without it, it runs only the
  /// executor and the validation IC (the fitness, paper Eq. 1) and sets only
  /// `valid`, `timed_out` and `ic_valid`: no backtest, Sharpe or turnover.
  /// A caller asks for the book when it reads the gross series (the
  /// weak-correlation cutoff, only against a non-empty accepted set) or the
  /// turnover (kCostAdjusted aggregation).
  AlphaMetrics EvaluateFitness(const AlphaProgram& program, uint64_t seed,
                               bool with_book);

  /// AutoML-Zero-style functional fingerprint (the paper's Table-6 `_N`
  /// baseline): runs the program on a small probe slice (`probe_train`
  /// training dates, `probe_valid` validation dates) and hashes the rounded
  /// predictions. Costs a fraction of a full evaluation. Runs on the same
  /// executor as Evaluate: every Executor::Run starts from a reset seed,
  /// draw counter, task state and plan, so interleaving the two calls
  /// changes no result.
  uint64_t ProbeFingerprint(const AlphaProgram& program, uint64_t seed,
                            int probe_train = 10, int probe_valid = 4);

  const market::Dataset& dataset() const { return dataset_; }
  const EvaluatorConfig& config() const { return config_; }

 private:
  /// Evaluate and EvaluateFitness: the validation IC always, the book only
  /// `with_book`, the test side only `include_test` (which needs the book).
  AlphaMetrics Measure(const AlphaProgram& program, uint64_t seed,
                       bool with_book, bool include_test);

  const market::Dataset& dataset_;
  EvaluatorConfig config_;
  Executor executor_;
};

}  // namespace alphaevolve::core

#endif  // ALPHAEVOLVE_CORE_EVALUATOR_H_
