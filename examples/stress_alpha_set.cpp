// Scenario-engine walkthrough: mine a weakly correlated alpha set, then
// stress every accepted alpha across a regime suite (crash / bull /
// sideways / sector rotation / low signal / thin universe) with a
// cost-aware backtest. Every regime is a copy-on-write overlay view of the
// one panel the alphas are mined on, so a stress report reads the same
// world in-loop fitness scores. The miner's accept hook wires the
// RobustnessEvaluator into the mining loop, so each alpha entering A is
// scored out-of-regime the moment it is admitted; the final table is the
// per-alpha RobustnessReport (per-scenario gross/net Sharpe, worst case,
// dispersion).
//
// Run: ./build/stress_alpha_set [rounds] [seconds_per_search] [num_threads]
//                               [num_scenarios] [json_out] [in_loop]
//
// Telemetry (position-independent, see telemetry_flags.h): --telemetry,
// --metrics-out=PATH, --trace-out=PATH, --progress-every=SECS.
// Crash tolerance (see checkpoint_flags.h): --checkpoint-dir=DIR,
// --checkpoint-every=N, --resume, --max-candidates=N, --eval-budget=S.
//
// num_threads drives both the miner's batch workers and the robustness
// fan-out over (alpha, scenario) cells; omitted or <= 0 it falls back to
// AE_BENCH_THREADS (default 1), so CI can steer the smoke run through the
// same knob as the benches. num_scenarios truncates the standard suite
// (CI smoke uses 2). json_out writes the reports as a diffable artifact.
// in_loop=1 mines *with* scenario fitness (worst-case IC across the same
// suite's overlay panels, cheap-first screened) instead of plain baseline
// IC — stress moves from post-hoc filter to in-loop objective.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checkpoint_flags.h"
#include "core/evaluator_pool.h"
#include "core/generators.h"
#include "core/mining.h"
#include "scenario/robustness.h"
#include "scenario/scenario_fitness.h"
#include "telemetry_flags.h"
#include "util/json.h"

using namespace alphaevolve;

namespace {

void PrintReport(const scenario::RobustnessReport& report) {
  std::printf("  %-16s %6s %8s %8s %9s\n", report.alpha_name.c_str(), "IC",
              "SR", "SR_net", "turnover");
  for (const scenario::ScenarioScore& s : report.scenarios) {
    if (!s.valid) {
      std::printf("    %-15s (invalid: non-finite predictions)\n",
                  s.scenario_id.c_str());
      continue;
    }
    std::printf("    %-15s %+.3f %+8.2f %+8.2f %8.1f%%\n",
                s.scenario_id.c_str(), s.ic, s.sharpe_gross, s.sharpe_net,
                100.0 * s.mean_turnover);
  }
  std::printf(
      "    => worst SR %.2f (net %.2f), mean SR %.2f (net %.2f), "
      "dispersion %.2f over %d scenario(s)\n",
      report.worst_sharpe_gross, report.worst_sharpe_net,
      report.mean_sharpe_gross, report.mean_sharpe_net,
      report.sharpe_dispersion, report.num_valid);
}

/// Writes `text` to `path`, failing loudly (CI parses the artifact next).
bool WriteFileOrComplain(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

bool WriteJson(const std::string& path,
               const scenario::RobustnessEvaluator& robustness,
               const std::vector<scenario::RobustnessReport>& reports) {
  const scenario::ScenarioSuite& suite = robustness.suite();
  const scenario::RobustnessConfig& rc = robustness.config();
  JsonWriter w;
  w.BeginObject();
  w.Key("suite_seed").Value(suite.suite_seed());
  w.Key("cost_per_side_bps").Value(rc.evaluator.costs.per_side_bps);
  w.Key("scenarios").BeginArray();
  for (int i = 0; i < suite.num_scenarios(); ++i) {
    w.BeginObject();
    w.Key("id").Value(suite.spec(i).id);
    w.Key("description").Value(suite.spec(i).description);
    w.Key("num_tasks").Value(robustness.dataset(i).num_tasks());
    w.EndObject();
  }
  w.EndArray();
  w.Key("reports").BeginArray();
  for (const scenario::RobustnessReport& r : reports) {
    w.BeginObject();
    w.Key("alpha").Value(r.alpha_name);
    w.Key("num_valid").Value(r.num_valid);
    w.Key("worst_sharpe_gross").Value(r.worst_sharpe_gross);
    w.Key("worst_sharpe_net").Value(r.worst_sharpe_net);
    w.Key("mean_sharpe_gross").Value(r.mean_sharpe_gross);
    w.Key("mean_sharpe_net").Value(r.mean_sharpe_net);
    w.Key("sharpe_dispersion").Value(r.sharpe_dispersion);
    w.Key("scenarios").BeginArray();
    for (const scenario::ScenarioScore& s : r.scenarios) {
      w.BeginObject();
      w.Key("id").Value(s.scenario_id);
      w.Key("valid").Value(s.valid);
      w.Key("ic").Value(s.ic);
      w.Key("sharpe_gross").Value(s.sharpe_gross);
      w.Key("sharpe_net").Value(s.sharpe_net);
      w.Key("mean_turnover").Value(s.mean_turnover);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return WriteFileOrComplain(path, w.TakeString());
}

}  // namespace

int main(int argc, char** argv) {
  const examples::TelemetryFlags telemetry =
      examples::StripTelemetryFlags(argc, argv);
  const examples::CheckpointFlags ck =
      examples::StripCheckpointFlags(argc, argv);
  auto progress = examples::StartTelemetry(telemetry);
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 2;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 2.0;
  int num_threads = argc > 3 ? std::atoi(argv[3]) : 0;
  if (num_threads <= 0) {  // fall back to the benches' env knob
    const char* env = std::getenv("AE_BENCH_THREADS");
    num_threads = std::max(1, env != nullptr ? std::atoi(env) : 1);
  }
  const int num_scenarios = argc > 4 ? std::atoi(argv[4]) : 0;  // 0 = all
  const char* json_out = argc > 5 ? argv[5] : nullptr;
  const bool in_loop = argc > 6 && std::atoi(argv[6]) != 0;

  // Base market the alphas are mined in; the suite derives regimes from it.
  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = 80;
  mc.num_days = 420;
  mc.seed = 9;

  scenario::ScenarioSuite suite = scenario::ScenarioSuite::Standard(mc, 77);
  if (num_scenarios > 0) suite.Truncate(num_scenarios);

  scenario::RobustnessConfig rc;
  rc.evaluator.costs.per_side_bps = 10.0;  // 10 bps per transaction side
  rc.num_threads = num_threads;
  std::printf("building %d overlay regime(s), %d thread(s)...\n",
              suite.num_scenarios(), num_threads);
  scenario::RobustnessEvaluator robustness(suite, rc);
  for (int i = 0; i < suite.num_scenarios(); ++i) {
    std::printf("  %-15s %4d tasks — %s\n", suite.spec(i).id.c_str(),
                robustness.dataset(i).num_tasks(),
                suite.spec(i).description.c_str());
  }

  // Mining setup, as in mine_alpha_set. With in_loop, fitness is worst-case
  // IC over the suite served as copy-on-write overlay views (one shared
  // panel + per-regime label deltas) instead of baseline IC alone.
  core::EvaluatorConfig eval_config;
  eval_config.eval_budget_seconds = ck.eval_budget;
  std::unique_ptr<scenario::ScenarioFitness> scorer;
  if (in_loop) {
    scorer = std::make_unique<scenario::ScenarioFitness>(
        suite, market::DatasetConfig{}, eval_config,
        core::ScenarioFitnessOptions{});
    std::printf("in-loop scenario fitness: %d regime(s) resident in %.1f MiB\n",
                scorer->num_regimes(),
                static_cast<double>(scorer->panels().ResidentBytes()) /
                    (1024 * 1024));
  }
  // Regime 0 of the robustness overlay is the plain base panel.
  const market::Dataset& dataset =
      scorer != nullptr ? scorer->baseline_panel() : robustness.dataset(0);
  core::EvaluatorPool pool(dataset, eval_config, num_threads);
  core::EvolutionConfig config;
  config.max_candidates = ck.max_candidates;  // 0 = wall-clock budgeted
  config.time_budget_seconds = ck.max_candidates > 0 ? 0.0 : seconds;
  config.num_threads = num_threads;
  if (ck.enabled()) config.share_round_cache = false;
  core::WeaklyCorrelatedMiner miner(pool, config);
  if (scorer != nullptr) {
    miner.UseCandidateScorer(scorer.get());
    scorer->set_fanout_pool(pool.thread_pool());
  }

  // Campaign-level crash tolerance, as in mine_alpha_set. Restoring the
  // accepted set happens *before* the accept hook is installed, so resumed
  // alphas are not stress-tested a second time.
  std::unique_ptr<ckpt::CheckpointWriter> campaign_writer;
  std::vector<std::vector<core::SearchStats>> round_stats;
  int start_round = 0;
  double wall_base = 0.0;
  const auto run_start = std::chrono::steady_clock::now();
  if (ck.enabled()) {
    campaign_writer = std::make_unique<ckpt::CheckpointWriter>(
        ck.dir, "stress", ck.ToWriterOptions());
    int64_t generation = 0;
    if (auto state = examples::LoadCampaignResume(ck, "stress", &generation)) {
      for (core::AcceptedAlpha& a : state->accepted) {
        miner.Accept(std::move(a.name), a.program, a.metrics);
      }
      round_stats = std::move(state->round_stats);
      start_round = state->rounds_done;
      wall_base = state->wall_seconds;
      std::printf(
          "resuming from %s generation %lld: %d round(s) done, %zu alpha(s) "
          "accepted, ~%.1fs of prior wall-clock saved\n",
          ck.dir.c_str(), static_cast<long long>(generation), start_round,
          miner.accepted().size(), wall_base);
    }
  }

  // Stress each alpha the moment it enters A.
  miner.set_accept_hook([&](const core::AcceptedAlpha& alpha) {
    std::printf("\nstress test of newly accepted %s:\n", alpha.name.c_str());
    PrintReport(robustness.Evaluate(alpha.program, alpha.name));
  });

  std::printf("\nmining %d round(s), %.1fs each...\n", rounds, seconds);
  for (int round = start_round; round < rounds; ++round) {
    const core::AlphaProgram init = core::MakeExpertAlpha(dataset.window());
    const uint64_t seed = static_cast<uint64_t>(round) + 1;
    std::unique_ptr<ckpt::CheckpointWriter> search_writer;
    std::optional<core::EvolutionCheckpoint> search_resume;
    if (ck.enabled()) {
      const std::string stem = "r" + std::to_string(round);
      search_writer = std::make_unique<ckpt::CheckpointWriter>(
          ck.dir, stem, ck.ToWriterOptions());
      search_resume = examples::LoadSearchResume(ck, stem);
      if (search_resume.has_value()) {
        std::printf("  resuming search %s at batch %lld\n", stem.c_str(),
                    static_cast<long long>(search_resume->batches_committed));
      }
    }
    const core::EvolutionResult r =
        miner.RunSearch(init, seed, search_writer.get(),
                        search_resume.has_value() ? &*search_resume : nullptr);
    round_stats.push_back({core::SearchStats::FromEvolution(seed, r.stats)});
    if (!r.has_alpha) {
      std::printf("round %d: no uncorrelated alpha found\n", round);
    } else {
      miner.Accept("alpha_" + std::to_string(round), r.best, r.best_metrics);
    }
    if (campaign_writer != nullptr) {
      ckpt::CampaignState state;
      state.rounds_done = round + 1;
      state.wall_seconds =
          wall_base + std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - run_start)
                          .count();
      state.accepted = miner.accepted();
      state.round_stats = round_stats;
      campaign_writer->WriteBlob(ckpt::kCampaignSnapshotKind,
                                 ckpt::EncodeCampaign(state));
      if (search_writer != nullptr) {
        // Drain the background publisher before sweeping its stream.
        search_writer->Flush();
        ckpt::RemoveCheckpoints(search_writer->dir(), search_writer->stem());
      }
    }
  }

  // Final robustness pass over the whole accepted set, parallel over the
  // full (alpha, scenario) grid; the expert alpha rides along as context.
  std::vector<core::AcceptedAlpha> set = miner.accepted();
  core::AcceptedAlpha expert;
  expert.name = "expert_baseline";
  expert.program = core::MakeExpertAlpha(dataset.window());
  set.push_back(expert);

  std::printf("\n=== robustness report: %zu alpha(s) x %d scenario(s) ===\n",
              set.size(), suite.num_scenarios());
  const std::vector<scenario::RobustnessReport> reports =
      robustness.EvaluateSet(set);
  for (const scenario::RobustnessReport& report : reports) {
    PrintReport(report);
  }
  if (json_out != nullptr && !WriteJson(json_out, robustness, reports)) {
    return 1;
  }
  if (!examples::FinishTelemetry(telemetry, std::move(progress))) return 1;
  return 0;
}
