#ifndef ALPHAEVOLVE_SCENARIO_PANEL_OVERLAY_H_
#define ALPHAEVOLVE_SCENARIO_PANEL_OVERLAY_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "market/dataset.h"
#include "market/simulator.h"
#include "scenario/scenario.h"

namespace alphaevolve::scenario {

/// Copy-on-write scenario panels — how mining fitness and robustness reports
/// turn a scenario regime into a dataset. One base panel, simulated once from the suite's base
/// `MarketConfig` (with SimTrace capture), is shared by every regime; each
/// non-baseline regime is a Dataset *view* over that panel with a lazy
/// label-perturbation overlay (ScenarioSpec::overlay) and/or a deterministic
/// thin-universe mask. Suite memory drops from S panels to ~1 panel + 1
/// trace + per-view indices. `Dataset::Materialized()` folds a view into
/// standalone storage through the same overlay function, so a materialized
/// copy reads bit-identically to its view.
///
/// The base panel keeps the base config's own seed (the suite seed only keys
/// the thin-universe masks), so regime 0 reproduces `Dataset::Simulate(base,
/// dc)` exactly — and therefore the plain mining driver. Mining fitness
/// (ScenarioFitness) and robustness reports (RobustnessEvaluator) read these
/// views; the alpha service's stress op still resimulates each regime
/// (ScenarioSuite::Materialize).
class PanelOverlay {
 public:
  /// Simulates the base panel once and derives every regime view. The base
  /// config must not itself use a late shift or relation break (the trace
  /// records one unbroken draw history).
  PanelOverlay(const ScenarioSuite& suite, const market::DatasetConfig& dc);

  int num_panels() const { return static_cast<int>(panels_.size()); }

  /// Regime `i`'s dataset view, in suite order (panel(0) = baseline).
  const market::Dataset& panel(int i) const {
    return panels_[static_cast<size_t>(i)];
  }

  const ScenarioSpec& spec(int i) const {
    return specs_[static_cast<size_t>(i)];
  }

  /// Resident bytes of the suite: distinct PanelStorage tapes across all
  /// panels (shared storage counted once) plus the retained SimTrace.
  size_t ResidentBytes() const;

 private:
  std::vector<ScenarioSpec> specs_;
  std::shared_ptr<const market::SimTrace> trace_;
  std::vector<market::Dataset> panels_;
};

}  // namespace alphaevolve::scenario

#endif  // ALPHAEVOLVE_SCENARIO_PANEL_OVERLAY_H_
