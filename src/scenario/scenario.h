#ifndef ALPHAEVOLVE_SCENARIO_SCENARIO_H_
#define ALPHAEVOLVE_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "market/dataset.h"
#include "market/types.h"

namespace alphaevolve::scenario {

/// Deterministic 64-bit key of (seed, scenario id): a splitmix64 finalizer
/// over the seed XOR an FNV-1a hash of the id. Thin-universe masks,
/// per-regime evaluation seeds and resimulated regime worlds are keyed by
/// this value, so the same (seed, scenario id) pair always reproduces the
/// same draw — across processes, thread counts, and suite orderings — while
/// different ids diverge.
uint64_t ScenarioKey(uint64_t seed, std::string_view id);

/// Copy-on-write regime description: how a regime perturbs the *base panel's
/// outcomes* instead of simulating a world of its own. All scale fields
/// default to exact identity (adding 0.0 / scaling by 1.0 leaves every label
/// bit-identical), so a default-constructed perturbation is the baseline.
///
/// The label delta for stock k on trace day u (log-return scale; recorded
/// draws from market::SimTrace) is
///
///   delta[k,u] = beta_m[k] * (market_drift + [u >= shift_day] * shift_drift)
///              + (market_vol_scale   - 1) * beta_m[k] * f_market[u]
///              + (sector_vol_scale   - 1) * beta_s[k] * f_sector[sec(k), u]
///              + (industry_vol_scale - 1) * beta_i[k] * f_industry[ind(k), u]
///              + (mr_scale  - 1) * mr[k, u]
///              + (mom_scale - 1) * mom[k, u]
///              + (idio_vol_scale * ([u >= shift_day] ? shift_vol_scale : 1)
///                 - 1) * eps[k, u]
///
/// and the overlaid label is expm1(log1p(base_label) + delta). Every overlay
/// perturbs one shared world, which is what makes results comparable across
/// regimes candidate by candidate, and what cuts suite memory from S panels
/// to one panel + one trace. Regimes with no overlay
/// analog yet (relation breaks redraw betas mid-path) keep identity in that
/// term.
struct PanelPerturbation {
  double market_drift = 0.0;       ///< Added to the market factor per day.
  double market_vol_scale = 1.0;   ///< Scales the market factor draws.
  double sector_vol_scale = 1.0;   ///< Scales the sector factor draws.
  double industry_vol_scale = 1.0; ///< Scales the industry factor draws.
  double idio_vol_scale = 1.0;     ///< Scales the realized GARCH shocks.
  double mr_scale = 1.0;           ///< Scales the mean-reversion signal.
  double mom_scale = 1.0;          ///< Scales the momentum signal.

  // Late-calendar shift: from day >= shift_fraction * num_days the market
  // gains shift_drift per day and shocks are additionally scaled by
  // shift_vol_scale. 0 disables.
  double shift_fraction = 0.0;
  double shift_drift = 0.0;
  double shift_vol_scale = 1.0;

  /// Thin-universe mask: keep ~this fraction of the base panel's tasks
  /// (deterministic per-scenario hash selection, min 8 tasks). 1 keeps all.
  double universe_fraction = 1.0;

  bool PerturbsLabels() const {
    return market_drift != 0.0 || market_vol_scale != 1.0 ||
           sector_vol_scale != 1.0 || industry_vol_scale != 1.0 ||
           idio_vol_scale != 1.0 || mr_scale != 1.0 || mom_scale != 1.0 ||
           shift_fraction > 0.0;
  }
  bool MasksUniverse() const { return universe_fraction < 1.0; }
  bool IsIdentity() const { return !PerturbsLabels() && !MasksUniverse(); }
};

/// One named market regime. `overlay` is the regime as mining fitness
/// (ScenarioFitness) and robustness reports (RobustnessEvaluator) read it: a
/// perturbation of the suite's base panel, served as a PanelOverlay view.
/// `apply` is the regime's resimulation recipe, a transform of the base
/// `MarketConfig` that ScenarioSuite::Materialize simulates as a fresh,
/// reseeded world; only the alpha service's `stress` op still reads it.
/// Transforms only edit config fields (never draw randomness). The two forms
/// are different random worlds, and two regimes differ in content too:
/// `sector_rotation`'s recipe also redraws betas mid-calendar, and
/// `thin_universe`'s also doubles the delist rate.
struct ScenarioSpec {
  std::string id;           ///< Stable identifier, e.g. "crash".
  std::string description;  ///< One line for reports.
  std::function<void(market::MarketConfig&)> apply;  ///< Resimulation recipe.
  PanelPerturbation overlay;  ///< How the regime perturbs the base panel.
};

/// Evaluation seed of regime `i` for a candidate seeded `seed`: regime 0 (the
/// base panel) keeps `seed`, so it scores exactly as the plain driver does;
/// regime i >= 1 uses ScenarioKey(seed, spec.id). Every regime consumer —
/// in-loop fitness, robustness reports, the service's stress op — seeds
/// through this one rule; fitness and robustness reports also read the same
/// overlay views, so their numbers agree cell for cell.
uint64_t RegimeSeed(uint64_t seed, int i, const ScenarioSpec& spec);

/// A named set of market regimes over one base configuration. PanelOverlay
/// turns a suite into datasets: one simulation of `base()` plus one view per
/// regime. The suite seed keys the regimes' thin-universe masks and, for
/// the resimulation recipe, each regime's reseeded world.
class ScenarioSuite {
 public:
  ScenarioSuite(market::MarketConfig base, uint64_t suite_seed)
      : base_(base), suite_seed_(suite_seed) {}

  /// The standard robustness suite: the regimes that separate durable
  /// alphas from overfit ones.
  ///   baseline         — the base panel itself.
  ///   crash            — late-calendar negative drift + GARCH vol spike
  ///                      (the shift lands past the train fraction, so the
  ///                      test period is genuinely out-of-regime).
  ///   bull             — persistent positive market drift, calmer vols.
  ///   sideways         — choppy range-bound tape: momentum attenuated,
  ///                      mean reversion amplified, trend vol dampened.
  ///   sector_rotation  — high sector/industry dispersion (the dispersion
  ///                      half of a §5.4.3 relational break).
  ///   low_signal       — both embedded signals attenuated to 25%: how much
  ///                      of the alpha is signal capture vs. luck.
  ///   thin_universe    — a quarter of the universe: small-cross-section
  ///                      stability.
  static ScenarioSuite Standard(const market::MarketConfig& base,
                                uint64_t suite_seed);

  void Add(ScenarioSpec spec) { specs_.push_back(std::move(spec)); }

  /// Drops all but the first `n` scenarios (smoke tests, CI).
  void Truncate(int n);

  int num_scenarios() const { return static_cast<int>(specs_.size()); }
  const ScenarioSpec& spec(int i) const {
    return specs_[static_cast<size_t>(i)];
  }
  const market::MarketConfig& base() const { return base_; }
  uint64_t suite_seed() const { return suite_seed_; }

  /// Resimulation recipe of scenario `i`: the base config transformed by
  /// `spec(i).apply` and reseeded with ScenarioKey(suite seed, id).
  market::MarketConfig ScenarioConfig(int i) const;

  /// Simulates scenario `i`'s resimulated world; a pure function of (suite
  /// seed, scenario id, base config).
  market::Dataset Materialize(int i, const market::DatasetConfig& dc) const;

 private:
  market::MarketConfig base_;
  uint64_t suite_seed_;
  std::vector<ScenarioSpec> specs_;
};

}  // namespace alphaevolve::scenario

#endif  // ALPHAEVOLVE_SCENARIO_SCENARIO_H_
