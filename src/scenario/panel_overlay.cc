#include "scenario/panel_overlay.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace alphaevolve::scenario {
namespace {

/// Everything the label overlay needs at read time, precomputed once per
/// regime. Owns a share of the trace so a view outliving the PanelOverlay
/// stays valid.
struct OverlayCtx {
  std::shared_ptr<const market::SimTrace> trace;
  double drift = 0.0;        ///< market_drift
  double shift_drift = 0.0;  ///< extra drift from shift_day on
  int shift_day = 0;         ///< num_days when the regime has no shift
  double m_scale = 0.0;      ///< market_vol_scale - 1
  double s_scale = 0.0;      ///< sector_vol_scale - 1
  double i_scale = 0.0;      ///< industry_vol_scale - 1
  double mr_scale = 0.0;     ///< mr_scale - 1
  double mom_scale = 0.0;    ///< mom_scale - 1
  double eps_pre = 0.0;      ///< idio_vol_scale - 1 (before shift_day)
  double eps_post = 0.0;     ///< idio_vol_scale * shift_vol_scale - 1 (after)
};

/// The one label function both a lazy view and its `Materialized()` copy
/// run — bitwise parity between them is parity by construction. `date`'s
/// label is the return of trace day u = date + 1 (labels look one day
/// ahead); the last calendar date has no next-day draw and keeps its base
/// label (0.0).
double OverlayLabel(const void* vctx, int source_id, int date,
                    double base_label) {
  const auto* ctx = static_cast<const OverlayCtx*>(vctx);
  const market::SimTrace& tr = *ctx->trace;
  const int u = date + 1;
  if (u >= tr.num_days) return base_label;

  const size_t k = static_cast<size_t>(source_id);
  const size_t cell = k * static_cast<size_t>(tr.num_days) + u;
  const bool shifted = u >= ctx->shift_day;
  const double bm = static_cast<double>(tr.beta_market[k]);

  const double delta =
      bm * (ctx->drift + (shifted ? ctx->shift_drift : 0.0)) +
      ctx->m_scale * bm * static_cast<double>(tr.f_market[u]) +
      ctx->s_scale * static_cast<double>(tr.beta_sector[k]) *
          static_cast<double>(
              tr.f_sector[static_cast<size_t>(tr.sector[k]) * tr.num_days + u]) +
      ctx->i_scale * static_cast<double>(tr.beta_industry[k]) *
          static_cast<double>(
              tr.f_industry[static_cast<size_t>(tr.industry[k]) * tr.num_days +
                            u]) +
      ctx->mr_scale * static_cast<double>(tr.mr[cell]) +
      ctx->mom_scale * static_cast<double>(tr.mom[cell]) +
      (shifted ? ctx->eps_post : ctx->eps_pre) *
          static_cast<double>(tr.eps[cell]);

  // Labels are simple returns; the perturbation lives on the log scale the
  // simulator generates on: r' = r + delta, label' = exp(r') - 1. An exact
  // zero delta (e.g. the pre-shift region of a shift-only regime) keeps the
  // base label bit for bit — expm1(log1p(x)) may round a ulp away from x.
  if (delta == 0.0) return base_label;
  return std::expm1(std::log1p(base_label) + delta);
}

std::shared_ptr<const OverlayCtx> MakeCtx(
    const PanelPerturbation& p, int num_days,
    std::shared_ptr<const market::SimTrace> trace) {
  auto ctx = std::make_shared<OverlayCtx>();
  ctx->trace = std::move(trace);
  ctx->drift = p.market_drift;
  ctx->shift_drift = p.shift_drift;
  ctx->shift_day = p.shift_fraction > 0.0
                       ? static_cast<int>(num_days * p.shift_fraction)
                       : num_days;  // never reached
  ctx->m_scale = p.market_vol_scale - 1.0;
  ctx->s_scale = p.sector_vol_scale - 1.0;
  ctx->i_scale = p.industry_vol_scale - 1.0;
  ctx->mr_scale = p.mr_scale - 1.0;
  ctx->mom_scale = p.mom_scale - 1.0;
  ctx->eps_pre = p.idio_vol_scale - 1.0;
  ctx->eps_post = p.idio_vol_scale * p.shift_vol_scale - 1.0;
  return ctx;
}

/// Deterministic thin-universe selection: hash every task's *source* id with
/// the scenario key, keep the smallest hashes (at least 8 tasks, at least 2
/// by Subset's own check), return them in task order. Independent of thread
/// count and of which view it is applied to.
std::vector<int> ThinMask(const market::Dataset& base, uint64_t key,
                          double fraction) {
  const int n = base.num_tasks();
  const int want = static_cast<int>(fraction * n + 0.5);
  const int keep = std::min(n, std::max(std::min(n, 8), want));
  std::vector<std::pair<uint64_t, int>> order(static_cast<size_t>(n));
  for (int task = 0; task < n; ++task) {
    const uint64_t h =
        Mix64(key ^ static_cast<uint64_t>(base.source_id(task) + 1));
    order[static_cast<size_t>(task)] = {h, task};
  }
  std::sort(order.begin(), order.end());
  std::vector<int> mask(static_cast<size_t>(keep));
  for (int i = 0; i < keep; ++i) mask[static_cast<size_t>(i)] = order[i].second;
  std::sort(mask.begin(), mask.end());
  return mask;
}

}  // namespace

PanelOverlay::PanelOverlay(const ScenarioSuite& suite,
                           const market::DatasetConfig& dc) {
  AE_CHECK(suite.num_scenarios() >= 1);
  AE_CHECK_MSG(suite.base().shift_fraction == 0.0 &&
                   suite.base().relation_break_fraction == 0.0,
               "overlay panels need an unbroken base draw history; express "
               "shifts/breaks as regime perturbations, not in the base config");

  for (int i = 0; i < suite.num_scenarios(); ++i) {
    specs_.push_back(suite.spec(i));
  }

  // One simulation, base config's own seed: regime 0 of an overlay suite is
  // *the* base dataset, so single-regime mining reproduces the plain driver.
  auto trace = std::make_shared<market::SimTrace>();
  const market::Dataset base =
      market::Dataset::Simulate(suite.base(), dc, trace.get());
  trace_ = std::move(trace);

  panels_.reserve(specs_.size());
  for (const ScenarioSpec& s : specs_) {
    const PanelPerturbation& p = s.overlay;
    market::Dataset view = base;  // shares storage
    if (p.PerturbsLabels()) {
      auto ctx = MakeCtx(p, base.num_days(), trace_);
      view = base.WithLabelOverlay(&OverlayLabel,
                                   std::shared_ptr<const void>(ctx));
    }
    if (p.MasksUniverse()) {
      view = view.Subset(ThinMask(
          base, ScenarioKey(suite.suite_seed(), s.id), p.universe_fraction));
    }
    panels_.push_back(std::move(view));
  }
}

size_t PanelOverlay::ResidentBytes() const {
  std::unordered_set<const market::PanelStorage*> seen;
  size_t total = 0;
  for (const auto& panel : panels_) {
    if (seen.insert(panel.storage().get()).second) {
      total += panel.StorageBytes();
    }
  }
  return total + trace_->bytes();
}

}  // namespace alphaevolve::scenario
