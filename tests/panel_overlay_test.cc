// Copy-on-write scenario panels, the one way a regime becomes a dataset:
// every standard regime's view must read bit-identically to its own
// Materialized() copy — and score identically on it, so every evaluator
// read honours the overlay — share one PanelStorage, reproduce the plain
// base dataset as regime 0, rebuild deterministically, and hold the suite
// in at least 5x less memory than materialized copies of the views.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/generators.h"
#include "market/dataset.h"
#include "market/simulator.h"
#include "scenario/panel_overlay.h"
#include "scenario/scenario.h"
#include "test_util.h"

namespace alphaevolve::scenario {
namespace {

using testutil::ExpectDatasetsIdentical;

market::MarketConfig SmallBase() {
  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = 48;
  mc.num_days = 220;
  mc.seed = 3;
  return mc;
}

TEST(PanelOverlayTest, BaselinePanelIsThePlainBaseDataset) {
  const ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 7);
  const market::DatasetConfig dc;
  const PanelOverlay overlay(suite, dc);
  ASSERT_EQ(overlay.num_panels(), 7);
  // Regime 0 keeps the base config's own seed (no suite reseeding): it IS
  // the dataset today's driver mines — single-regime mode depends on this.
  ExpectDatasetsIdentical(overlay.panel(0),
                          market::Dataset::Simulate(SmallBase(), dc));
}

TEST(PanelOverlayTest, LazyModeSharesOneStorageAcrossAllRegimes) {
  const ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 7);
  const PanelOverlay overlay(suite, market::DatasetConfig{});
  for (int i = 1; i < overlay.num_panels(); ++i) {
    EXPECT_EQ(overlay.panel(i).storage().get(), overlay.panel(0).storage().get())
        << "regime " << overlay.spec(i).id << " copied the tape";
  }
  // And the feature rows of a perturbed regime are literally the base's
  // memory, not a copy.
  const market::Dataset& base = overlay.panel(0);
  const market::Dataset& crash = overlay.panel(1);
  EXPECT_EQ(crash.FeatureRow(0, base.first_usable_date()),
            base.FeatureRow(0, base.first_usable_date()));
}

TEST(PanelOverlayTest, LazyAndMaterializedPanelsAreBitIdentical) {
  const ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 7);
  const PanelOverlay overlay(suite, market::DatasetConfig{});
  core::EvaluatorConfig config;
  config.costs.per_side_bps = 10.0;  // net != gross: every field is live
  const core::AlphaProgram alphas[] = {
      core::MakeExpertAlpha(market::kNumFeatures),
      core::MakeNeuralNetAlpha(market::kNumFeatures)};
  for (int i = 0; i < overlay.num_panels(); ++i) {
    SCOPED_TRACE(overlay.spec(i).id);
    const market::Dataset& view = overlay.panel(i);
    const market::Dataset copy = view.Materialized();
    EXPECT_NE(copy.storage().get(), view.storage().get());
    ExpectDatasetsIdentical(view, copy);
    // The evaluator reads labels, closes and features through every path
    // (extraction kernels, IC, backtest); each must honour the overlay.
    core::Evaluator on_view(view, config);
    core::Evaluator on_copy(copy, config);
    for (const core::AlphaProgram& alpha : alphas) {
      testutil::ExpectSameMetrics(on_view.Evaluate(alpha, 5, true),
                                  on_copy.Evaluate(alpha, 5, true));
    }
  }
}

TEST(PanelOverlayTest, OverlayRegimesActuallyPerturbLabels) {
  const ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 7);
  const market::DatasetConfig dc;
  const PanelOverlay overlay(suite, dc);
  const market::Dataset& base = overlay.panel(0);

  auto mean_label = [](const market::Dataset& ds, market::Split split) {
    double sum = 0.0;
    int n = 0;
    for (int date : ds.dates(split)) {
      for (int k = 0; k < ds.num_tasks(); ++k) {
        sum += ds.Label(k, date);
        ++n;
      }
    }
    return sum / n;
  };

  // Every label-perturbing regime must differ from the base somewhere.
  for (int i = 1; i < overlay.num_panels(); ++i) {
    if (!overlay.spec(i).overlay.PerturbsLabels()) continue;
    const market::Dataset& regime = overlay.panel(i);
    bool any_diff = false;
    for (int k = 0; k < base.num_tasks() && !any_diff; ++k) {
      for (int date : base.dates(market::Split::kValid)) {
        if (regime.Label(k, date) != base.Label(k, date)) {
          any_diff = true;
          break;
        }
      }
    }
    EXPECT_TRUE(any_diff) << overlay.spec(i).id;
  }

  // Directional sanity: the crash overlay depresses test-period returns
  // (-60bp/day of market drift through unit-ish betas), the bull overlay
  // lifts full-calendar returns.
  ASSERT_EQ(overlay.spec(1).id, "crash");
  EXPECT_LT(mean_label(overlay.panel(1), market::Split::kTest),
            mean_label(base, market::Split::kTest) - 0.002);
  ASSERT_EQ(overlay.spec(2).id, "bull");
  EXPECT_GT(mean_label(overlay.panel(2), market::Split::kTrain),
            mean_label(base, market::Split::kTrain));
  // The crash shift lands past the train split: training labels unchanged.
  for (int k = 0; k < base.num_tasks(); ++k) {
    for (int date : base.dates(market::Split::kTrain)) {
      ASSERT_EQ(overlay.panel(1).Label(k, date), base.Label(k, date));
    }
  }
}

TEST(PanelOverlayTest, ThinUniverseMaskIsDeterministicAndConsistent) {
  const ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 7);
  const market::DatasetConfig dc;
  const PanelOverlay a(suite, dc);
  const PanelOverlay b(suite, dc);
  const int thin = 6;
  ASSERT_EQ(a.spec(thin).id, "thin_universe");
  const market::Dataset& ta = a.panel(thin);
  const market::Dataset& base = a.panel(0);

  // ~quarter of the base universe, floored at 8 tasks.
  EXPECT_GE(ta.num_tasks(), 8);
  EXPECT_LT(ta.num_tasks(), base.num_tasks());
  EXPECT_NEAR(ta.num_tasks(), base.num_tasks() / 4, 1);

  // Rebuilding the suite reproduces every regime: the same base simulation,
  // the same overlay, and the same thin-universe tasks (the mask is a pure
  // function of (suite seed, id, source ids)).
  for (int i = 0; i < a.num_panels(); ++i) {
    SCOPED_TRACE(a.spec(i).id);
    ExpectDatasetsIdentical(a.panel(i), b.panel(i));
  }

  // Dense relational groups are consistent after subsetting: every task is
  // a member of the group it reports, ids are in range, meta is re-indexed.
  for (int k = 0; k < ta.num_tasks(); ++k) {
    EXPECT_EQ(ta.task_meta(k).id, k);
    const int sec = ta.sector_of(k);
    ASSERT_GE(sec, 0);
    ASSERT_LT(sec, ta.num_sector_groups());
    const auto& members = ta.sector_tasks(sec);
    EXPECT_NE(std::find(members.begin(), members.end(), k), members.end());
    const int ind = ta.industry_of(k);
    ASSERT_GE(ind, 0);
    ASSERT_LT(ind, ta.num_industry_groups());
    const auto& imembers = ta.industry_tasks(ind);
    EXPECT_NE(std::find(imembers.begin(), imembers.end(), k), imembers.end());
  }
  // A different suite seed keys a different mask.
  const PanelOverlay other(ScenarioSuite::Standard(SmallBase(), 8), dc);
  std::vector<int> sources_a, sources_other;
  for (int k = 0; k < ta.num_tasks(); ++k) {
    sources_a.push_back(ta.source_id(k));
  }
  const market::Dataset& to = other.panel(thin);
  for (int k = 0; k < to.num_tasks(); ++k) {
    sources_other.push_back(to.source_id(k));
  }
  EXPECT_NE(sources_a, sources_other);
}

TEST(PanelOverlayTest, LazySuiteIsAtLeastFiveTimesSmaller) {
  const ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 7);
  const PanelOverlay overlay(suite, market::DatasetConfig{});
  size_t materialized = 0;
  for (int i = 0; i < overlay.num_panels(); ++i) {
    materialized += overlay.panel(i).Materialized().StorageBytes();
  }
  EXPECT_GE(materialized, 5 * overlay.ResidentBytes())
      << "lazy: " << overlay.ResidentBytes()
      << " materialized: " << materialized;
}

TEST(PanelOverlayTest, SimTraceCaptureDoesNotPerturbTheSimulation) {
  const market::MarketConfig mc = SmallBase();
  const market::DatasetConfig dc;
  market::SimTrace trace;
  const market::Dataset with_trace = market::Dataset::Simulate(mc, dc, &trace);
  const market::Dataset without = market::Dataset::Simulate(mc, dc);
  ExpectDatasetsIdentical(with_trace, without);
  EXPECT_EQ(trace.num_stocks, mc.num_stocks);
  EXPECT_EQ(trace.num_days, mc.num_days);
  EXPECT_GT(trace.bytes(), 0u);
}

}  // namespace
}  // namespace alphaevolve::scenario
