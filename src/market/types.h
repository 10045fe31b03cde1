#ifndef ALPHAEVOLVE_MARKET_TYPES_H_
#define ALPHAEVOLVE_MARKET_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace alphaevolve::market {

/// One daily bar of a stock's price/volume history.
struct OhlcvBar {
  double open = 0.0;
  double high = 0.0;
  double low = 0.0;
  double close = 0.0;
  double volume = 0.0;
};

/// Static metadata of a listed stock. Sector/industry ids follow the paper's
/// two-level relational hierarchy (each industry belongs to one sector).
struct StockMeta {
  int id = 0;                 ///< Dense index in the universe.
  std::string symbol;         ///< Synthetic ticker, e.g. "S0042".
  int sector = 0;             ///< Sector id in [0, num_sectors).
  int industry = 0;           ///< Global industry id in [0, num_industries).
};

/// Full simulated history of one stock. `bars.size()` may be shorter than the
/// calendar if the stock delists (exercises the paper's sample filter).
struct StockSeries {
  StockMeta meta;
  std::vector<OhlcvBar> bars;
};

/// Configuration of the synthetic market generator.
///
/// The defaults produce a NASDAQ-like panel at bench scale: multi-level
/// factor co-movement (market/sector/industry), GARCH-style volatility
/// clustering, and two embedded *predictable* cross-sectional signals —
/// mean reversion toward the 20-day moving average and sector-demeaned
/// momentum — calibrated so that achievable ICs land in the paper's
/// 0.01–0.07 band.
struct MarketConfig {
  int num_stocks = 64;
  int num_days = 400;          ///< Calendar length, including warmup.
  int num_sectors = 8;
  int industries_per_sector = 3;

  // Factor volatilities (daily log-return scale).
  double market_vol = 0.008;
  double sector_vol = 0.006;
  double industry_vol = 0.004;
  double idio_vol_min = 0.01;
  double idio_vol_max = 0.03;

  // GARCH(1,1)-style volatility clustering on the idiosyncratic term.
  double garch_alpha = 0.08;
  double garch_beta = 0.88;

  // Embedded predictable signal strengths (next-day return loadings).
  double mean_reversion_strength = 0.15;   ///< On (MA20/close - 1).
  double momentum_strength = 0.05;         ///< On sector-demeaned 10d return.

  // Relational regime break: at this fraction of the calendar every stock's
  // sector/industry factor loadings are re-drawn ("sector rotation"). This
  // models the paper's observation that a noisy market's rapidly changing
  // relational structure cannot be captured by static group knowledge
  // (§5.4.3) — models that *learn* a fixed relation graph in-sample carry it
  // stale into the test period. 0 disables the break.
  double relation_break_fraction = 0.0;

  // --- Regime hooks (resimulated scenario regimes) ----------------------
  // Set only by ScenarioSpec::apply, whose resimulated regimes the alpha
  // service's `stress` op still reads; mining fitness and robustness
  // reports use copy-on-write overlays (scenario::PanelOverlay), whose base
  // config must leave the shift and the relation break at 0. All default to
  // values that leave the return recursion bit-identical to the pre-hook
  // simulator (0.0 drift adds exactly nothing; 1.0 vol scale multiplies
  // exactly; none consume extra RNG draws), so existing seeds reproduce
  // existing panels.

  // Constant daily drift of the market factor (log-return scale). Every
  // stock inherits it through its market beta: bull regimes use a positive
  // value, secular-decline regimes a negative one.
  double market_drift = 0.0;

  // Late-calendar regime shift: from day >= shift_fraction * num_days the
  // market factor gains `shift_drift` per day and realized idiosyncratic
  // shocks are scaled by `shift_vol_scale` (the GARCH state itself stays
  // unscaled — scaling its feedback would compound exponentially). Placing
  // the shift past the train fraction creates a genuine out-of-regime test
  // period — the crash scenario's defining property. shift_fraction == 0
  // disables the shift.
  double shift_fraction = 0.0;
  double shift_drift = 0.0;
  double shift_vol_scale = 1.0;

  // Fraction of stocks that delist early / start as penny stocks; both are
  // removed by the dataset filters, as in the paper's preprocessing.
  double delist_fraction = 0.05;
  double penny_fraction = 0.05;

  double initial_price_min = 5.0;
  double initial_price_max = 200.0;

  uint64_t seed = 1;

  /// Paper-scale configuration (§5.1): 1,026 surviving stocks over 1,220
  /// trading days, 2013–2017 NASDAQ. Heavy: ~40x bench scale.
  static MarketConfig Nasdaq2013();

  /// Scaled-down configuration used by the benchmark harnesses.
  static MarketConfig BenchScale();
};

}  // namespace alphaevolve::market

#endif  // ALPHAEVOLVE_MARKET_TYPES_H_
