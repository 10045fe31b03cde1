#ifndef ALPHAEVOLVE_MARKET_SIMULATOR_H_
#define ALPHAEVOLVE_MARKET_SIMULATOR_H_

#include <cstddef>
#include <vector>

#include "market/types.h"
#include "market/universe.h"
#include "util/rng.h"

namespace alphaevolve::market {

/// Per-draw record of one simulation — the raw material for copy-on-write
/// scenario panels (scenario/panel_overlay.h). A regime that only rescales
/// drift, factor exposure, signal strength or shock size does not need a
/// second simulation: its log-return delta for stock k on day t is a linear
/// combination of the base run's recorded draws,
///
///   delta[k,t] = beta_m[k] * drift
///              + (market_vol_scale - 1) * beta_m[k] * f_market[t]
///              + (sector_vol_scale - 1) * beta_s[k] * f_sector[sec(k), t]
///              + ... + (scale - 1) * eps[k, t],
///
/// so one base panel plus this trace replaces a full re-simulated copy per
/// regime. Everything is stored as float: the trace defines the overlay
/// perturbation (a lazy overlay view and its materialized copy read the
/// same rounded values), it does not need to reproduce the base run's
/// double-precision internals. ~12 bytes per (stock, day) cell for the
/// three per-cell series vs ~68 bytes per cell of a full panel copy.
struct SimTrace {
  int num_stocks = 0;
  int num_days = 0;
  int num_sectors = 0;
  int num_industries = 0;

  // Per stock (indexed by the *simulation* stock id — Dataset rows map back
  // through Dataset::source_id, since the dataset filters and re-indexes).
  std::vector<float> beta_market;
  std::vector<float> beta_sector;
  std::vector<float> beta_industry;
  std::vector<int> sector;    ///< Raw universe sector id.
  std::vector<int> industry;  ///< Raw universe industry id.

  // Factor draws, before any beta weighting. f_market excludes the
  // configured drift (the overlay adds its own drift delta explicitly).
  std::vector<float> f_market;    ///< [day]
  std::vector<float> f_sector;    ///< [sector * num_days + day]
  std::vector<float> f_industry;  ///< [industry * num_days + day]

  // Per (stock, day), indexed [stock * num_days + day]; zero where the
  // stock is already delisted. `eps` is the realized GARCH shock as applied;
  // `mr` / `mom` are the two embedded-signal components entering that day's
  // return (committed from the previous day's observables).
  std::vector<float> eps;
  std::vector<float> mr;
  std::vector<float> mom;

  /// Resident bytes of every array above.
  size_t bytes() const;
};

/// Synthetic daily-bar market generator, the substitute for the paper's
/// proprietary NASDAQ 2013–2017 feed (see DESIGN.md, "Substitutions").
///
/// Return model for stock k on day t (log-return scale):
///
///   r[k,t] = beta_m[k]*f_m[t] + beta_s[k]*f_sec(k)[t] + beta_i[k]*f_ind(k)[t]
///          + signal[k,t-1] + sqrt(h[k,t]) * eps[k,t]
///
/// where `h` follows a GARCH(1,1) recursion (volatility clustering) and
/// `signal` is committed one day ahead from *observable* state:
///
///   signal[k,t-1] = mr * (MA20[k,t-1]/close[k,t-1] - 1)
///                 + mom * (ret10[k,t-1] - mean_sector(ret10[.,t-1]))
///
/// so that a model observing day t-1 features genuinely can predict part of
/// day t's return — the property every miner in the paper exploits.
/// OHLC and volume are synthesized around the close path.
class MarketSimulator {
 public:
  /// Generates the full panel. `universe` supplies the relational structure.
  /// `trace`, when non-null, records every stochastic draw as applied (betas,
  /// factor paths, shocks, signal components) without consuming any extra
  /// randomness — the panel is bit-identical with or without capture.
  static std::vector<StockSeries> Simulate(const MarketConfig& config,
                                           const Universe& universe, Rng& rng,
                                           SimTrace* trace = nullptr);
};

}  // namespace alphaevolve::market

#endif  // ALPHAEVOLVE_MARKET_SIMULATOR_H_
