#include "scenario/robustness.h"

#include <algorithm>

#include "util/check.h"
#include "util/stats.h"

namespace alphaevolve::scenario {

RobustnessEvaluator::RobustnessEvaluator(ScenarioSuite suite,
                                         RobustnessConfig config)
    : suite_(std::move(suite)),
      config_(config),
      panels_(suite_, config_.dataset) {
  AE_CHECK(suite_.num_scenarios() >= 1);
  AE_CHECK(config_.num_threads >= 1);
  if (config_.num_threads > 1) {
    // The caller participates in ParallelFor, so N-way fan-out needs N - 1
    // workers.
    thread_pool_ = std::make_unique<ThreadPool>(config_.num_threads - 1);
  }
  pools_.reserve(static_cast<size_t>(panels_.num_panels()));
  for (int i = 0; i < panels_.num_panels(); ++i) {
    // num_threads == 1: the per-scenario pool spawns no threads of its own;
    // it only supplies lazily created, leasable evaluators to however many
    // fan-out workers land on this scenario concurrently.
    pools_.push_back(std::make_unique<core::EvaluatorPool>(
        panels_.panel(i), config_.evaluator, 1));
  }
}

RobustnessReport RobustnessEvaluator::Evaluate(
    const core::AlphaProgram& program, std::string name) {
  return EvaluateGrid({{&program, std::move(name)}}).front();
}

std::vector<RobustnessReport> RobustnessEvaluator::EvaluateSet(
    const std::vector<core::AcceptedAlpha>& accepted) {
  std::vector<NamedProgram> alphas;
  alphas.reserve(accepted.size());
  for (const core::AcceptedAlpha& a : accepted) {
    alphas.push_back({&a.program, a.name});
  }
  return EvaluateGrid(alphas);
}

std::vector<RobustnessReport> RobustnessEvaluator::EvaluateGrid(
    const std::vector<NamedProgram>& alphas) {
  const int num_alphas = static_cast<int>(alphas.size());
  const int num_scenarios = suite_.num_scenarios();
  const int cells = num_alphas * num_scenarios;
  std::vector<ScenarioScore> scores(static_cast<size_t>(cells));

  // Every cell is independent and deterministic; ParallelFor's lanes claim
  // cells from one shared counter, which keeps all of them busy even when
  // scenarios differ in universe size and cost.
  auto score_cell = [&](int cell) {
    const int s = cell % num_scenarios;
    const int a = cell / num_scenarios;
    const ScenarioSpec& spec = suite_.spec(s);
    const uint64_t seed = RegimeSeed(config_.eval_seed, s, spec);
    core::AlphaMetrics m;
    {
      core::EvaluatorPool::Lease lease(*pools_[static_cast<size_t>(s)]);
      m = lease->Evaluate(*alphas[static_cast<size_t>(a)].program, seed,
                          /*include_test=*/true);
    }
    ScenarioScore& score = scores[static_cast<size_t>(cell)];
    score.scenario_id = spec.id;
    score.valid = m.valid;
    if (m.valid) {
      score.ic = m.ic_test;
      score.sharpe_gross = m.sharpe_test;
      score.sharpe_net = m.sharpe_test_net;
      score.mean_turnover = m.mean_turnover_test;
    }
  };

  if (thread_pool_ == nullptr) {
    for (int cell = 0; cell < cells; ++cell) score_cell(cell);
  } else {
    thread_pool_->ParallelFor(cells, score_cell);
  }

  // Aggregate in suite order on the caller: thread-count invariant.
  std::vector<RobustnessReport> reports(static_cast<size_t>(num_alphas));
  for (int a = 0; a < num_alphas; ++a) {
    RobustnessReport& report = reports[static_cast<size_t>(a)];
    report.alpha_name = alphas[static_cast<size_t>(a)].name;
    std::vector<double> gross, net;
    for (int s = 0; s < num_scenarios; ++s) {
      const ScenarioScore& score =
          scores[static_cast<size_t>(a * num_scenarios + s)];
      report.scenarios.push_back(score);
      if (!score.valid) continue;
      gross.push_back(score.sharpe_gross);
      net.push_back(score.sharpe_net);
    }
    report.num_valid = static_cast<int>(gross.size());
    if (report.num_valid > 0) {
      report.worst_sharpe_gross =
          *std::min_element(gross.begin(), gross.end());
      report.worst_sharpe_net = *std::min_element(net.begin(), net.end());
      report.mean_sharpe_gross = Mean(gross);
      report.mean_sharpe_net = Mean(net);
      report.sharpe_dispersion = StdDev(gross);
    }
  }
  return reports;
}

}  // namespace alphaevolve::scenario
