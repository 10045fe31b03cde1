#ifndef ALPHAEVOLVE_SCENARIO_ROBUSTNESS_H_
#define ALPHAEVOLVE_SCENARIO_ROBUSTNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator_pool.h"
#include "core/mining.h"
#include "scenario/panel_overlay.h"
#include "scenario/scenario.h"
#include "util/threadpool.h"

namespace alphaevolve::scenario {

/// Options of a robustness run.
struct RobustnessConfig {
  /// Executor + portfolio + costs.
  core::EvaluatorConfig evaluator;
  market::DatasetConfig dataset;      ///< Split fractions of the panel.
  int num_threads = 1;                ///< Fan-out width over (alpha, scenario).
  uint64_t eval_seed = 1;             ///< Base seed for random-init ops.
};

/// One alpha's scores on one scenario, on that scenario's test split.
struct ScenarioScore {
  std::string scenario_id;
  bool valid = false;          ///< False: non-finite predictions there.
  double ic = 0.0;
  double sharpe_gross = 0.0;
  double sharpe_net = 0.0;     ///< After the cost model; == gross at 0 bps.
  double mean_turnover = 0.0;  ///< Mean day-over-day book turnover.
};

/// Cross-scenario aggregation for one alpha. A durable alpha has a high
/// worst-case Sharpe and low dispersion; an overfit one collapses outside
/// the regime it was mined in.
struct RobustnessReport {
  std::string alpha_name;
  std::vector<ScenarioScore> scenarios;  ///< In suite order.
  int num_valid = 0;                     ///< Scenarios scored successfully.
  double worst_sharpe_gross = 0.0;       ///< Min over valid scenarios.
  double worst_sharpe_net = 0.0;
  double mean_sharpe_gross = 0.0;
  double mean_sharpe_net = 0.0;
  double sharpe_dispersion = 0.0;        ///< Stddev of gross Sharpes.
};

/// Fans alphas across a scenario suite on the existing EvaluatorPool /
/// ThreadPool machinery: construction builds one PanelOverlay over (suite,
/// config.dataset) — the same copy-on-write regime views ScenarioFitness
/// mines on — and one `EvaluatorPool` per regime; evaluation work-steals
/// (alpha, scenario) cells from a shared counter, each worker holding a
/// per-scenario evaluator lease. Every cell is deterministic in (program,
/// RegimeSeed(eval seed, i, spec), regime view) and aggregation runs in
/// suite order, so reports are bit-identical across thread counts and a
/// cell equals what in-loop fitness computes for the same (program, seed).
///
/// Like ScenarioFitness, it rejects a base config with a late shift or a
/// relation break (PanelOverlay replays one unbroken draw history).
class RobustnessEvaluator {
 public:
  RobustnessEvaluator(ScenarioSuite suite, RobustnessConfig config);

  RobustnessEvaluator(const RobustnessEvaluator&) = delete;
  RobustnessEvaluator& operator=(const RobustnessEvaluator&) = delete;

  const ScenarioSuite& suite() const { return suite_; }
  const RobustnessConfig& config() const { return config_; }
  const market::Dataset& dataset(int scenario) const {
    return panels_.panel(scenario);
  }

  /// Scores one alpha across all scenarios (parallel over scenarios).
  RobustnessReport Evaluate(const core::AlphaProgram& program,
                            std::string name = "alpha");

  /// Scores a whole accepted set (e.g. from WeaklyCorrelatedMiner) across
  /// all scenarios, parallel over the full (alpha, scenario) grid. Reports
  /// are in set order.
  std::vector<RobustnessReport> EvaluateSet(
      const std::vector<core::AcceptedAlpha>& accepted);

 private:
  struct NamedProgram {
    const core::AlphaProgram* program;
    std::string name;
  };
  std::vector<RobustnessReport> EvaluateGrid(
      const std::vector<NamedProgram>& alphas);

  ScenarioSuite suite_;
  RobustnessConfig config_;
  std::unique_ptr<ThreadPool> thread_pool_;  ///< null when serial
  PanelOverlay panels_;                      ///< One view per scenario.
  std::vector<std::unique_ptr<core::EvaluatorPool>> pools_;
};

}  // namespace alphaevolve::scenario

#endif  // ALPHAEVOLVE_SCENARIO_ROBUSTNESS_H_
