// Weakly-correlated alpha-set mining (the paper's §5.4.1 loop): run several
// rounds, each with the 15% cutoff against everything already accepted, and
// show that the final set A is pairwise weakly correlated. Each round races
// two seeds concurrently on the evaluator pool — sharing one fingerprint
// cache (same round = same fitness function) — and keeps the one with the
// higher validation Sharpe ratio.
//
// Run: ./build/mine_alpha_set [rounds] [seconds_per_search] [num_threads]
//                             [json_out] [pipeline_depth]
//                             [scenario_regimes] [aggregation]
//
// scenario_regimes > 0 switches fitness to stress-in-the-loop mining: every
// candidate is scored across the first N standard scenario regimes (served
// as copy-on-write views of one shared base panel), with the cheap baseline
// evaluation screening candidates before the regime fan-out. aggregation
// picks how per-regime ICs combine: worst (default), mean, or cost
// (turnover-penalized mean). scenario_regimes=0 (default) is exactly the
// plain single-panel driver.
//
// num_threads evaluates candidates concurrently, each candidate on one
// thread. json_out emits the accepted alpha set (program text + metrics) and
// every round's per-search SearchStats as a diffable JSON artifact — the
// mining-side counterpart of stress_alpha_set's robustness report.
// pipeline_depth sets how many evaluation batches each search keeps in
// flight while it generates the next (default 1; 0 = lockstep, each batch
// committed before the next is generated; any depth is bit-identical for
// candidate-bounded searches — time-budgeted ones, like this example's,
// simply cover more candidates per wall-second).
//
// Telemetry (position-independent, see telemetry_flags.h): --telemetry,
// --metrics-out=PATH, --trace-out=PATH, --progress-every=SECS.
//
// Crash tolerance (position-independent, see checkpoint_flags.h):
// --checkpoint-dir=DIR, --checkpoint-every=N, --checkpoint-every-secs=S,
// --checkpoint-keep=K, --resume, --max-candidates=N, --eval-budget=S.
// With --max-candidates the per-search budget is candidates instead of
// wall-clock, so a SIGKILLed run resumed with --resume finishes with the
// same accepted set, stats, and JSON artifact as an uninterrupted one.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checkpoint_flags.h"
#include "core/evaluator_pool.h"
#include "core/generators.h"
#include "core/mining.h"
#include "eval/metrics.h"
#include "market/dataset.h"
#include "scenario/scenario.h"
#include "scenario/scenario_fitness.h"
#include "telemetry_flags.h"
#include "util/json.h"

using namespace alphaevolve;

int main(int argc, char** argv) {
  const examples::TelemetryFlags telemetry =
      examples::StripTelemetryFlags(argc, argv);
  const examples::CheckpointFlags ck =
      examples::StripCheckpointFlags(argc, argv);
  auto progress = examples::StartTelemetry(telemetry);
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 3;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 3.0;
  const int num_threads = std::max(1, argc > 3 ? std::atoi(argv[3]) : 1);
  const char* json_out = argc > 4 ? argv[4] : nullptr;
  const int pipeline_depth = std::max(0, argc > 5 ? std::atoi(argv[5]) : 1);
  const int scenario_regimes = std::max(0, argc > 6 ? std::atoi(argv[6]) : 0);
  const char* aggregation_name = argc > 7 ? argv[7] : "worst";

  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = 80;
  mc.num_days = 420;
  mc.seed = 9;
  core::EvaluatorConfig eval_config;
  eval_config.eval_budget_seconds = ck.eval_budget;

  // Stress-in-the-loop mode: the scorer owns the base panel plus the
  // copy-on-write regime views; the mining pool evaluates over its baseline
  // panel so the leased evaluator *is* the cheap-first screen's evaluator.
  std::unique_ptr<scenario::ScenarioFitness> scorer;
  std::optional<market::Dataset> plain_panel;
  if (scenario_regimes > 0) {
    scenario::ScenarioSuite suite = scenario::ScenarioSuite::Standard(mc, 77);
    suite.Truncate(scenario_regimes);
    core::ScenarioFitnessOptions options;
    if (std::strcmp(aggregation_name, "mean") == 0) {
      options.aggregation = core::ScenarioAggregation::kMean;
    } else if (std::strcmp(aggregation_name, "cost") == 0) {
      options.aggregation = core::ScenarioAggregation::kCostAdjusted;
    } else {
      aggregation_name = "worst";
    }
    scorer = std::make_unique<scenario::ScenarioFitness>(
        suite, market::DatasetConfig{}, eval_config, options);
  } else {
    plain_panel.emplace(market::Dataset::Simulate(mc, {}));
  }
  const market::Dataset& dataset =
      scorer != nullptr ? scorer->baseline_panel() : *plain_panel;
  core::EvaluatorPool pool(dataset, eval_config, num_threads);

  core::EvolutionConfig config;
  config.max_candidates = ck.max_candidates;  // 0 = wall-clock budgeted
  config.time_budget_seconds = ck.max_candidates > 0 ? 0.0 : seconds;
  config.num_threads = num_threads;  // batch size auto-derives (4x threads)
  config.pipeline_depth = pipeline_depth;
  // Checkpointed searches own their caches (snapshot/restore needs that), so
  // the round-shared cache is off when a checkpoint dir is set.
  if (ck.enabled()) config.share_round_cache = false;
  core::WeaklyCorrelatedMiner miner(pool, config);
  if (scorer != nullptr) {
    miner.UseCandidateScorer(scorer.get());
    scorer->set_fanout_pool(pool.thread_pool());
  }

  std::printf(
      "mining %d rounds, %.1fs each, cutoff %.0f%%, %d thread(s), "
      "pipeline depth %d\n",
      rounds, seconds, config.correlation_cutoff * 100, num_threads,
      pipeline_depth);
  if (scorer != nullptr) {
    std::printf(
        "scenario fitness: %d regime(s), %s aggregation, panels resident "
        "%.1f MiB (copy-on-write)\n",
        scorer->num_regimes(), aggregation_name,
        static_cast<double>(scorer->panels().ResidentBytes()) / (1024 * 1024));
  }
  std::printf("\n");
  // Every round's per-search attribution, for the JSON artifact.
  std::vector<std::vector<core::SearchStats>> round_stats;

  // Campaign-level crash tolerance: the "miner" stream snapshots the
  // accepted set + per-round stats after every completed round; per-search
  // "r<round>-s<seed>" streams snapshot at batch barriers inside a round.
  std::unique_ptr<ckpt::CheckpointWriter> campaign_writer;
  int start_round = 0;
  double wall_base = 0.0;
  const auto run_start = std::chrono::steady_clock::now();
  if (ck.enabled()) {
    campaign_writer = std::make_unique<ckpt::CheckpointWriter>(
        ck.dir, "miner", ck.ToWriterOptions());
    int64_t generation = 0;
    if (auto state = examples::LoadCampaignResume(ck, "miner", &generation)) {
      for (core::AcceptedAlpha& a : state->accepted) {
        miner.Accept(std::move(a.name), a.program, a.metrics);
      }
      round_stats = std::move(state->round_stats);
      start_round = state->rounds_done;
      wall_base = state->wall_seconds;
      std::printf(
          "resuming from %s generation %lld: %d round(s) done, %zu alpha(s) "
          "accepted, ~%.1fs of prior wall-clock saved\n\n",
          ck.dir.c_str(), static_cast<long long>(generation), start_round,
          miner.accepted().size(), wall_base);
    }
  }

  for (int round = start_round; round < rounds; ++round) {
    const core::AlphaProgram init = core::MakeExpertAlpha(dataset.window());
    // Two seeds per round, searched concurrently against the same accepted
    // set; keep the winner by validation Sharpe (paper §5.4.1).
    const uint64_t base_seed = static_cast<uint64_t>(round) * 2 + 1;
    std::vector<core::WeaklyCorrelatedMiner::SearchSpec> specs = {
        {init, base_seed}, {init, base_seed + 1}};
    std::vector<std::unique_ptr<ckpt::CheckpointWriter>> search_writers;
    std::vector<std::optional<core::EvolutionCheckpoint>> search_resumes(
        specs.size());
    if (ck.enabled()) {
      for (size_t s = 0; s < specs.size(); ++s) {
        const std::string stem = "r" + std::to_string(round) + "-s" +
                                 std::to_string(specs[s].seed);
        search_writers.push_back(std::make_unique<ckpt::CheckpointWriter>(
            ck.dir, stem, ck.ToWriterOptions()));
        specs[s].checkpoint_sink = search_writers.back().get();
        search_resumes[s] = examples::LoadSearchResume(ck, stem);
        if (search_resumes[s].has_value()) {
          specs[s].resume = &*search_resumes[s];
          std::printf(
              "  resuming search %s at batch %lld (%lld candidates done)\n",
              stem.c_str(),
              static_cast<long long>(search_resumes[s]->batches_committed),
              static_cast<long long>(search_resumes[s]->stats.candidates));
        }
      }
    }
    const std::vector<core::EvolutionResult> results =
        miner.RunSearches(specs);
    const core::EvolutionResult* r = nullptr;
    for (const core::EvolutionResult& candidate : results) {
      if (!candidate.has_alpha) continue;
      if (r == nullptr || candidate.best_metrics.sharpe_valid >
                              r->best_metrics.sharpe_valid) {
        r = &candidate;
      }
    }
    core::EvolutionStats round_totals;
    for (const core::EvolutionResult& candidate : results) {
      round_totals.Merge(candidate.stats);
    }
    const int64_t searched = round_totals.candidates;
    const int64_t discarded = round_totals.cutoff_discarded;
    // Per-search attribution against the round's shared fingerprint cache.
    round_stats.push_back(miner.last_round_stats());
    for (const core::SearchStats& s : miner.last_round_stats()) {
      std::printf(
          "  seed %llu: %lld candidates = %lld evaluated + %lld cache hits "
          "+ %lld pruned",
          static_cast<unsigned long long>(s.seed),
          static_cast<long long>(s.candidates),
          static_cast<long long>(s.evaluated),
          static_cast<long long>(s.cache_hits),
          static_cast<long long>(s.pruned_redundant));
      if (scorer != nullptr) {
        std::printf(" | %lld screened out, %lld regime evals",
                    static_cast<long long>(s.screened_out),
                    static_cast<long long>(s.scenario_evals));
      }
      std::printf("\n");
    }
    if (r == nullptr) {
      std::printf("round %d: no uncorrelated alpha found (searched %lld)\n",
                  round, static_cast<long long>(searched));
    } else {
      const double corr = miner.CorrelationWithAccepted(r->best_metrics);
      std::printf(
          "round %d: IC(valid)=%.4f Sharpe(valid)=%.2f corr-with-A=%s "
          "(searched %lld, cutoff-discarded %lld)\n",
          round, r->best_metrics.ic_valid, r->best_metrics.sharpe_valid,
          std::isnan(corr) ? "NA" : std::to_string(corr).c_str(),
          static_cast<long long>(searched), static_cast<long long>(discarded));
      miner.Accept("alpha_" + std::to_string(round), r->best,
                   r->best_metrics);
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
      // The round is durable; its per-search snapshot streams are obsolete.
      // Drain each writer's background publisher first, or a late publish
      // could resurrect a file after the sweep.
      for (const auto& w : search_writers) {
        w->Flush();
        ckpt::RemoveCheckpoints(w->dir(), w->stem());
      }
    }
  }

  // The defining property of A: pairwise weak correlation.
  const auto& accepted = miner.accepted();
  std::printf("\npairwise |correlation| of accepted validation returns:\n");
  for (size_t i = 0; i < accepted.size(); ++i) {
    for (size_t j = 0; j < accepted.size(); ++j) {
      const double c = eval::PortfolioCorrelation(
          accepted[i].metrics.valid_portfolio_returns,
          accepted[j].metrics.valid_portfolio_returns);
      std::printf("%7.3f", c);
    }
    std::printf("   %s\n", accepted[i].name.c_str());
  }

  // Diffable run artifact: the accepted set (program text reusing the
  // Figure-2 `ToString` listing, which `AlphaProgram::FromString`
  // round-trips) plus every round's per-search SearchStats.
  if (json_out != nullptr) {
    JsonWriter w;
    w.BeginObject();
    w.Key("market_seed").Value(mc.seed);
    w.Key("rounds").Value(rounds);
    w.Key("seconds_per_search").Value(seconds);
    w.Key("correlation_cutoff").Value(config.correlation_cutoff);
    w.Key("scenario_regimes").Value(scenario_regimes);
    if (scorer != nullptr) {
      w.Key("aggregation").Value(aggregation_name);
      w.Key("panel_resident_bytes")
          .Value(static_cast<int64_t>(scorer->panels().ResidentBytes()));
    }
    w.Key("round_stats").BeginArray();
    for (const std::vector<core::SearchStats>& round : round_stats) {
      w.BeginArray();
      for (const core::SearchStats& s : round) {
        w.BeginObject();
        w.Key("seed").Value(s.seed);
        w.Key("candidates").Value(s.candidates);
        w.Key("evaluated").Value(s.evaluated);
        w.Key("cache_hits").Value(s.cache_hits);
        w.Key("pruned_redundant").Value(s.pruned_redundant);
        w.Key("screened_out").Value(s.screened_out);
        w.Key("scenario_evals").Value(s.scenario_evals);
        w.Key("eval_timeouts").Value(s.eval_timeouts);
        w.EndObject();
      }
      w.EndArray();
    }
    w.EndArray();
    w.Key("accepted").BeginArray();
    for (const core::AcceptedAlpha& a : accepted) {
      w.BeginObject();
      w.Key("name").Value(a.name);
      w.Key("ic_valid").Value(a.metrics.ic_valid);
      w.Key("ic_test").Value(a.metrics.ic_test);
      w.Key("sharpe_valid").Value(a.metrics.sharpe_valid);
      w.Key("sharpe_test").Value(a.metrics.sharpe_test);
      w.Key("mean_turnover_test").Value(a.metrics.mean_turnover_test);
      w.Key("program").Value(a.program.ToString());
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::ofstream out(json_out);
    out << w.TakeString() << "\n";
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n", json_out);
      return 1;
    }
    std::printf("\nwrote %s\n", json_out);
  }
  if (!examples::FinishTelemetry(telemetry, std::move(progress))) return 1;
  return 0;
}
