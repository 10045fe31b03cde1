#include "scenario/scenario.h"

#include <algorithm>

#include "core/pruning.h"
#include "util/check.h"
#include "util/rng.h"

namespace alphaevolve::scenario {

uint64_t ScenarioKey(uint64_t seed, std::string_view id) {
  return Mix64(seed ^ core::HashString(std::string(id)));
}

uint64_t RegimeSeed(uint64_t seed, int i, const ScenarioSpec& spec) {
  return i == 0 ? seed : ScenarioKey(seed, spec.id);
}

ScenarioSuite ScenarioSuite::Standard(const market::MarketConfig& base,
                                      uint64_t suite_seed) {
  // Each regime carries both of its forms: `apply` (resimulation recipe,
  // used by Materialize) and `overlay` (copy-on-write perturbation of the
  // shared base panel, used by PanelOverlay). Keep them telling the same
  // story — same drifts, same scales — even though the two paths inhabit
  // different random worlds.
  ScenarioSuite suite(base, suite_seed);
  suite.Add({"baseline", "the base market", [](market::MarketConfig&) {},
             PanelPerturbation{}});
  {
    ScenarioSpec s;
    s.id = "crash";
    s.description =
        "late-calendar crash: -60bp/day market drift, 2x GARCH vol spike";
    // The default 81% train split ends at calendar fraction
    // ~0.81 + 6/num_days (the 41-day feature warmup pushes usable days
    // late), so 0.87 keeps every training label pre-crash for
    // num_days >= ~120: the alpha never trains on the regime it is scored
    // in.
    s.apply = [](market::MarketConfig& c) {
      c.shift_fraction = 0.87;
      c.shift_drift = -0.006;
      c.shift_vol_scale = 2.0;
    };
    s.overlay.shift_fraction = 0.87;
    s.overlay.shift_drift = -0.006;
    s.overlay.shift_vol_scale = 2.0;
    suite.Add(std::move(s));
  }
  {
    ScenarioSpec s;
    s.id = "bull";
    s.description = "persistent +25bp/day market drift, calmer tape";
    s.apply = [](market::MarketConfig& c) {
      c.market_drift = 0.0025;
      c.market_vol *= 0.85;
    };
    s.overlay.market_drift = 0.0025;
    s.overlay.market_vol_scale = 0.85;
    suite.Add(std::move(s));
  }
  {
    ScenarioSpec s;
    s.id = "sideways";
    s.description = "choppy range-bound tape: momentum starved";
    s.apply = [](market::MarketConfig& c) {
      c.momentum_strength *= 0.3;
      c.mean_reversion_strength *= 1.5;
      c.market_vol *= 0.7;
    };
    s.overlay.mom_scale = 0.3;
    s.overlay.mr_scale = 1.5;
    s.overlay.market_vol_scale = 0.7;
    suite.Add(std::move(s));
  }
  {
    ScenarioSpec s;
    s.id = "sector_rotation";
    s.description = "high sector/industry dispersion";
    // The relational break itself (betas redrawn mid-path) has no overlay
    // term yet; the overlay keeps the dispersion half, the resimulation
    // recipe both.
    s.apply = [](market::MarketConfig& c) {
      c.relation_break_fraction = 0.55;
      c.sector_vol *= 1.8;
      c.industry_vol *= 1.5;
    };
    s.overlay.sector_vol_scale = 1.8;
    s.overlay.industry_vol_scale = 1.5;
    suite.Add(std::move(s));
  }
  {
    ScenarioSpec s;
    s.id = "low_signal";
    s.description = "both embedded signals attenuated to 25%";
    s.apply = [](market::MarketConfig& c) {
      c.mean_reversion_strength *= 0.25;
      c.momentum_strength *= 0.25;
    };
    s.overlay.mr_scale = 0.25;
    s.overlay.mom_scale = 0.25;
    suite.Add(std::move(s));
  }
  {
    ScenarioSpec s;
    s.id = "thin_universe";
    s.description = "quarter-size universe";
    s.apply = [](market::MarketConfig& c) {
      c.num_stocks = std::max(24, c.num_stocks / 4);
      c.delist_fraction = std::min(0.3, c.delist_fraction * 2.0);
    };
    s.overlay.universe_fraction = 0.25;
    suite.Add(std::move(s));
  }
  return suite;
}

void ScenarioSuite::Truncate(int n) {
  AE_CHECK(n >= 1);
  if (n < num_scenarios()) {
    specs_.resize(static_cast<size_t>(n));
  }
}

market::MarketConfig ScenarioSuite::ScenarioConfig(int i) const {
  AE_CHECK(i >= 0 && i < num_scenarios());
  const ScenarioSpec& s = specs_[static_cast<size_t>(i)];
  market::MarketConfig mc = base_;
  if (s.apply) s.apply(mc);
  mc.seed = ScenarioKey(suite_seed_, s.id);
  return mc;
}

market::Dataset ScenarioSuite::Materialize(
    int i, const market::DatasetConfig& dc) const {
  return market::Dataset::Simulate(ScenarioConfig(i), dc);
}

}  // namespace alphaevolve::scenario
