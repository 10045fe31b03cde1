// Scenario suites and robustness reports: the ScenarioKey / RegimeSeed
// rules, the standard regimes and their resimulation recipes (what the
// service's stress op reads), and the RobustnessEvaluator's contract — its
// datasets are the overlay views ScenarioFitness mines on, each report cell
// equals a direct evaluation of that view under RegimeSeed, reports are
// bit-identical across thread counts, and the aggregates fold the cells.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.h"
#include "core/generators.h"
#include "scenario/robustness.h"
#include "scenario/scenario.h"
#include "scenario/scenario_fitness.h"
#include "test_util.h"
#include "util/stats.h"

namespace alphaevolve::scenario {
namespace {

using testutil::Bits;

market::MarketConfig SmallBase() {
  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = 48;
  mc.num_days = 220;
  mc.seed = 3;
  return mc;
}

std::vector<core::AcceptedAlpha> ExpertAndNeuralNet() {
  std::vector<core::AcceptedAlpha> set(2);
  set[0].name = "expert";
  set[0].program = core::MakeExpertAlpha(market::kNumFeatures);
  set[1].name = "nn";
  set[1].program = core::MakeNeuralNetAlpha(market::kNumFeatures);
  return set;
}

TEST(ScenarioKeyTest, DeterministicAndSensitiveToBothInputs) {
  EXPECT_EQ(ScenarioKey(5, "crash"), ScenarioKey(5, "crash"));
  EXPECT_NE(ScenarioKey(5, "crash"), ScenarioKey(5, "bull"));
  EXPECT_NE(ScenarioKey(5, "crash"), ScenarioKey(6, "crash"));
  EXPECT_NE(ScenarioKey(5, "crash"), 5u);
}

TEST(ScenarioKeyTest, RegimeSeedKeepsTheBaselineSeedAndKeysTheRest) {
  const ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 7);
  EXPECT_EQ(RegimeSeed(41, 0, suite.spec(0)), 41u);
  for (int i = 1; i < suite.num_scenarios(); ++i) {
    EXPECT_EQ(RegimeSeed(41, i, suite.spec(i)),
              ScenarioKey(41, suite.spec(i).id));
  }
}

TEST(ScenarioSuiteTest, StandardSuiteHasTheNamedRegimes) {
  const ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 7);
  ASSERT_EQ(suite.num_scenarios(), 7);
  EXPECT_EQ(suite.spec(0).id, "baseline");
  EXPECT_TRUE(suite.spec(0).overlay.IsIdentity());
  EXPECT_EQ(suite.spec(1).id, "crash");
  // The crash overlay installs the late-calendar regime shift.
  const PanelPerturbation& crash = suite.spec(1).overlay;
  EXPECT_LT(crash.shift_drift, 0.0);
  EXPECT_GT(crash.shift_vol_scale, 1.0);
  EXPECT_GT(crash.shift_fraction, 0.0);
  // Every scenario's resimulation recipe is reseeded by (suite seed, id),
  // and the crash recipe installs the same shift.
  for (int i = 0; i < suite.num_scenarios(); ++i) {
    EXPECT_EQ(suite.ScenarioConfig(i).seed,
              ScenarioKey(7, suite.spec(i).id));
  }
  const market::MarketConfig crash_config = suite.ScenarioConfig(1);
  EXPECT_EQ(crash_config.shift_drift, crash.shift_drift);
  EXPECT_EQ(crash_config.shift_vol_scale, crash.shift_vol_scale);
  EXPECT_EQ(crash_config.shift_fraction, crash.shift_fraction);
}

TEST(ScenarioSuiteTest, MaterializationIsDeterministic) {
  const ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 11);
  const market::DatasetConfig dc;
  // A re-materialization of one (suite seed, scenario id) reproduces the
  // panel exactly.
  testutil::ExpectDatasetsIdentical(suite.Materialize(1, dc),
                                    suite.Materialize(1, dc));
}

TEST(ScenarioSuiteTest, DifferentScenarioIdsProduceDifferentPanels) {
  const ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 11);
  const market::DatasetConfig dc;
  // baseline vs. low_signal share every config field except the seed and
  // signal strengths; their label panels must still diverge.
  const market::Dataset baseline = suite.Materialize(0, dc);
  const market::Dataset low_signal = suite.Materialize(5, dc);
  ASSERT_EQ(suite.spec(5).id, "low_signal");
  bool any_diff = false;
  const int tasks = std::min(baseline.num_tasks(), low_signal.num_tasks());
  for (int k = 0; k < tasks && !any_diff; ++k) {
    for (int date : baseline.dates(market::Split::kValid)) {
      if (baseline.Label(k, date) != low_signal.Label(k, date)) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScenarioSuiteTest, CrashRegimeDepressesLateCalendarReturns) {
  const ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 19);
  const market::DatasetConfig dc;
  const market::Dataset baseline = suite.Materialize(0, dc);
  const market::Dataset crash = suite.Materialize(1, dc);
  auto mean_test_label = [](const market::Dataset& ds) {
    double sum = 0.0;
    int n = 0;
    for (int date : ds.dates(market::Split::kTest)) {
      for (int k = 0; k < ds.num_tasks(); ++k) {
        sum += ds.Label(k, date);
        ++n;
      }
    }
    return sum / n;
  };
  // -60bp/day of market drift through unit-ish betas: the crash regime's
  // test-period mean return sits far below the baseline's.
  EXPECT_LT(mean_test_label(crash), mean_test_label(baseline) - 0.002);
}

TEST(RobustnessEvaluatorTest, ReportsReadTheWorldMiningScores) {
  const ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 23);
  RobustnessConfig rc;
  rc.evaluator.costs.per_side_bps = 10.0;
  rc.num_threads = 4;
  rc.eval_seed = 41;
  RobustnessEvaluator robustness(suite, rc);
  const ScenarioFitness fitness(suite, rc.dataset, core::EvaluatorConfig{},
                                core::ScenarioFitnessOptions{});
  ASSERT_EQ(fitness.num_regimes(), suite.num_scenarios());
  for (int i = 0; i < suite.num_scenarios(); ++i) {
    SCOPED_TRACE(suite.spec(i).id);
    testutil::ExpectDatasetsIdentical(robustness.dataset(i),
                                      fitness.panels().panel(i));
  }

  const std::vector<core::AcceptedAlpha> set = ExpertAndNeuralNet();
  const std::vector<RobustnessReport> reports = robustness.EvaluateSet(set);
  ASSERT_EQ(reports.size(), set.size());
  for (size_t a = 0; a < set.size(); ++a) {
    ASSERT_EQ(reports[a].scenarios.size(),
              static_cast<size_t>(suite.num_scenarios()));
    for (int i = 0; i < suite.num_scenarios(); ++i) {
      SCOPED_TRACE(set[a].name + " on " + suite.spec(i).id);
      core::Evaluator direct(fitness.panels().panel(i), rc.evaluator);
      const core::AlphaMetrics m =
          direct.Evaluate(set[a].program,
                          RegimeSeed(rc.eval_seed, i, suite.spec(i)), true);
      const ScenarioScore& cell = reports[a].scenarios[static_cast<size_t>(i)];
      EXPECT_EQ(cell.scenario_id, suite.spec(i).id);
      ASSERT_EQ(cell.valid, m.valid);
      if (!m.valid) continue;
      EXPECT_EQ(Bits(cell.ic), Bits(m.ic_test));
      EXPECT_EQ(Bits(cell.sharpe_gross), Bits(m.sharpe_test));
      EXPECT_EQ(Bits(cell.sharpe_net), Bits(m.sharpe_test_net));
      EXPECT_EQ(Bits(cell.mean_turnover), Bits(m.mean_turnover_test));
    }
  }
}

TEST(RobustnessEvaluatorTest, ReportsAreInvariantToThreadCount) {
  ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 23);
  suite.Truncate(3);  // baseline, crash, bull — keep the test fast
  const std::vector<core::AcceptedAlpha> set = ExpertAndNeuralNet();

  RobustnessConfig rc;
  rc.evaluator.costs.per_side_bps = 10.0;
  rc.num_threads = 1;
  RobustnessEvaluator serial(suite, rc);
  const auto serial_reports = serial.EvaluateSet(set);

  rc.num_threads = 8;
  RobustnessEvaluator parallel(suite, rc);
  const auto parallel_reports = parallel.EvaluateSet(set);

  ASSERT_EQ(serial_reports.size(), parallel_reports.size());
  for (size_t a = 0; a < serial_reports.size(); ++a) {
    const RobustnessReport& s = serial_reports[a];
    const RobustnessReport& p = parallel_reports[a];
    EXPECT_EQ(s.alpha_name, p.alpha_name);
    EXPECT_EQ(s.num_valid, p.num_valid);
    EXPECT_EQ(s.worst_sharpe_gross, p.worst_sharpe_gross);  // bitwise
    EXPECT_EQ(s.worst_sharpe_net, p.worst_sharpe_net);
    EXPECT_EQ(s.mean_sharpe_gross, p.mean_sharpe_gross);
    EXPECT_EQ(s.mean_sharpe_net, p.mean_sharpe_net);
    EXPECT_EQ(s.sharpe_dispersion, p.sharpe_dispersion);
    ASSERT_EQ(s.scenarios.size(), p.scenarios.size());
    for (size_t i = 0; i < s.scenarios.size(); ++i) {
      EXPECT_EQ(s.scenarios[i].scenario_id, p.scenarios[i].scenario_id);
      EXPECT_EQ(s.scenarios[i].valid, p.scenarios[i].valid);
      EXPECT_EQ(s.scenarios[i].ic, p.scenarios[i].ic);
      EXPECT_EQ(s.scenarios[i].sharpe_gross, p.scenarios[i].sharpe_gross);
      EXPECT_EQ(s.scenarios[i].sharpe_net, p.scenarios[i].sharpe_net);
      EXPECT_EQ(s.scenarios[i].mean_turnover, p.scenarios[i].mean_turnover);
    }
  }
}

TEST(RobustnessEvaluatorTest, AggregatesMatchScenarioScores) {
  ScenarioSuite suite = ScenarioSuite::Standard(SmallBase(), 29);
  suite.Truncate(2);
  RobustnessConfig rc;
  rc.num_threads = 2;
  RobustnessEvaluator evaluator(suite, rc);
  const RobustnessReport report =
      evaluator.Evaluate(core::MakeExpertAlpha(market::kNumFeatures));
  ASSERT_EQ(report.scenarios.size(), 2u);
  ASSERT_EQ(report.num_valid, 2);
  std::vector<double> gross;
  for (const ScenarioScore& s : report.scenarios) {
    EXPECT_TRUE(s.valid);
    gross.push_back(s.sharpe_gross);
    // Costs disabled: net must equal gross bitwise.
    EXPECT_EQ(s.sharpe_net, s.sharpe_gross);
  }
  EXPECT_EQ(report.worst_sharpe_gross,
            *std::min_element(gross.begin(), gross.end()));
  EXPECT_EQ(report.mean_sharpe_gross, Mean(gross));
  EXPECT_EQ(report.sharpe_dispersion, StdDev(gross));
}

}  // namespace
}  // namespace alphaevolve::scenario
