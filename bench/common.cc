#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>

#include "eval/metrics.h"
#include "util/table.h"

namespace aebench {
namespace {

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atof(v);
}

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atoi(v);
}

}  // namespace

BenchOptions BenchOptions::FromEnv() {
  BenchOptions opt;
  opt.num_stocks = EnvInt("AE_BENCH_STOCKS", opt.num_stocks);
  opt.num_days = EnvInt("AE_BENCH_DAYS", opt.num_days);
  opt.market_seed =
      static_cast<uint64_t>(EnvInt("AE_BENCH_SEED",
                                   static_cast<int>(opt.market_seed)));
  opt.search_seconds = EnvDouble("AE_BENCH_TIME", opt.search_seconds);
  opt.rounds = EnvInt("AE_BENCH_ROUNDS", opt.rounds);
  opt.num_threads = std::max(1, EnvInt("AE_BENCH_THREADS", opt.num_threads));
  opt.full = EnvInt("AE_BENCH_FULL", 0) != 0;
  if (opt.full) {
    // Paper-scale universe and calendar (§5.1); budgets stay time-bounded.
    opt.num_stocks = 1140;
    opt.num_days = 1260;
  }
  return opt;
}

market::Dataset MakeBenchDataset(const BenchOptions& opt) {
  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = opt.num_stocks;
  mc.num_days = opt.num_days;
  mc.seed = opt.market_seed;
  // Calibrated so the best evolved alphas reach IC ≈ 0.05–0.10 and the
  // GA/expert baselines sit below (see DESIGN.md).
  mc.mean_reversion_strength = 0.03;
  mc.momentum_strength = 0.05;
  // Sector rotation late in the training period: static learned relation
  // graphs go stale by test time (the paper's §5.4.3 failure mode for RSR).
  mc.relation_break_fraction = 0.6;
  market::DatasetConfig dc;
  if (!opt.full) {
    // At bench scale the paper's 81/9.5/9.5 split leaves too few validation
    // days for a stable fitness/selection signal; widen to 70/15/15.
    dc.train_fraction = 0.65;
    dc.valid_fraction = 0.20;
  }
  return market::Dataset::Simulate(mc, dc);
}

core::EvolutionConfig MakeEvolutionConfig(const BenchOptions& opt,
                                          uint64_t seed) {
  core::EvolutionConfig cfg;
  cfg.population_size = 100;   // §5.2
  cfg.tournament_size = 10;    // §5.2
  cfg.max_candidates = 0;      // time-bounded, like the paper's 60 h rounds
  cfg.time_budget_seconds = opt.search_seconds;
  cfg.seed = seed;
  cfg.num_threads = opt.num_threads;  // batch size auto: 4x threads
  return cfg;
}

ga::GaConfig MakeGaConfig(const BenchOptions& opt, uint64_t seed) {
  ga::GaConfig cfg;  // §5.2 probabilities are the defaults
  cfg.max_candidates = 0;
  cfg.time_budget_seconds = opt.search_seconds;
  cfg.seed = seed;
  return cfg;
}

RoundOutcome RunRoundBestOfInits(core::WeaklyCorrelatedMiner& miner,
                                 const std::vector<core::InitKind>& inits,
                                 uint64_t seed) {
  RoundOutcome out;
  core::Mutator mutator{core::MutatorConfig{}};
  // One search per initialization; pool-backed miners run them concurrently.
  std::vector<core::WeaklyCorrelatedMiner::SearchSpec> specs;
  for (size_t i = 0; i < inits.size(); ++i) {
    alphaevolve::Rng rng(seed * 977 + i);
    specs.push_back({core::MakeInitialAlpha(inits[i], mutator, rng),
                     seed + i});
  }
  std::vector<core::EvolutionResult> results = miner.RunSearches(specs);
  double best_sharpe = -1e30;
  for (size_t i = 0; i < inits.size(); ++i) {
    core::EvolutionResult& r = results[i];
    if (r.has_alpha && r.best_metrics.sharpe_valid > best_sharpe) {
      best_sharpe = r.best_metrics.sharpe_valid;
      out.has_alpha = true;
      out.init = inits[i];
      out.result = r;
    }
    out.per_init.push_back(std::move(r));
  }
  return out;
}

core::EvolutionResult RunRoundFrom(core::WeaklyCorrelatedMiner& miner,
                                   const core::AlphaProgram& init,
                                   uint64_t seed) {
  return miner.RunSearch(init, seed);
}

namespace {

StudyRow MakeRow(std::string name, const core::EvolutionResult& r,
                 const core::WeaklyCorrelatedMiner& miner) {
  StudyRow row;
  row.name = std::move(name);
  row.has_alpha = r.has_alpha;
  row.stats = r.stats;
  row.trajectory = r.trajectory;
  if (r.has_alpha) {
    row.sharpe_test = r.best_metrics.sharpe_test;
    row.ic_test = r.best_metrics.ic_test;
    row.sharpe_valid = r.best_metrics.sharpe_valid;
    row.ic_valid = r.best_metrics.ic_valid;
    row.corr = miner.CorrelationWithAccepted(r.best_metrics);
    row.program = r.best;
    row.metrics = r.best_metrics;
  }
  return row;
}

AeStudyResult RunAeStudyWithMiner(core::WeaklyCorrelatedMiner& miner,
                                  const BenchOptions& opt) {
  const std::vector<core::InitKind> inits = {
      core::InitKind::kExpert, core::InitKind::kNoOp, core::InitKind::kRandom,
      core::InitKind::kNeuralNet};
  core::Mutator mutator{core::MutatorConfig{}};
  AeStudyResult study;

  for (int round = 0; round < opt.rounds; ++round) {
    const bool final_round =
        round == opt.rounds - 1 && !miner.accepted().empty();
    // Each round is one multi-seed batch of searches against the same
    // accepted set; a pool-backed miner runs them concurrently.
    std::vector<core::WeaklyCorrelatedMiner::SearchSpec> specs;
    std::vector<std::string> names;
    if (!final_round) {
      for (size_t i = 0; i < inits.size(); ++i) {
        alphaevolve::Rng rng(static_cast<uint64_t>(round) * 977 + i);
        specs.push_back({core::MakeInitialAlpha(inits[i], mutator, rng),
                         static_cast<uint64_t>(round) * 100 + i});
        names.push_back("alpha_AE_" +
                        std::string(core::InitKindName(inits[i])) + "_" +
                        std::to_string(round));
      }
    } else {
      // The paper's last round: previous best alphas as initializations.
      const auto accepted_copy = miner.accepted();  // stable during round
      for (size_t j = 0; j < accepted_copy.size(); ++j) {
        specs.push_back({accepted_copy[j].program,
                         static_cast<uint64_t>(round) * 100 + j});
        names.push_back("alpha_AE_B" + std::to_string(j) + "_" +
                        std::to_string(round));
      }
    }
    const std::vector<core::EvolutionResult> results =
        miner.RunSearches(specs);
    std::vector<StudyRow> rows;
    for (size_t i = 0; i < results.size(); ++i) {
      rows.push_back(MakeRow(names[i], results[i], miner));
    }
    // Round winner by validation Sharpe (paper §5.4.1).
    int best = -1;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].has_alpha &&
          (best < 0 || rows[i].sharpe_valid >
                           rows[static_cast<size_t>(best)].sharpe_valid)) {
        best = static_cast<int>(i);
      }
    }
    if (best >= 0) {
      StudyRow& winner = rows[static_cast<size_t>(best)];
      winner.accepted = true;
      miner.Accept(winner.name, winner.program, winner.metrics);
      study.accepted_names.push_back(winner.name);
    }
    study.rounds.push_back(std::move(rows));
  }
  study.accepted = miner.accepted();
  return study;
}

}  // namespace

AeStudyResult RunAeStudy(core::Evaluator& evaluator, const BenchOptions& opt) {
  core::WeaklyCorrelatedMiner miner(evaluator,
                                    MakeEvolutionConfig(opt, /*seed=*/1));
  return RunAeStudyWithMiner(miner, opt);
}

AeStudyResult RunAeStudy(core::EvaluatorPool& pool, const BenchOptions& opt) {
  core::WeaklyCorrelatedMiner miner(pool, MakeEvolutionConfig(opt, /*seed=*/1));
  return RunAeStudyWithMiner(miner, opt);
}

std::vector<GaStudyRow> RunGaStudy(const market::Dataset& dataset,
                                   const BenchOptions& opt) {
  std::vector<GaStudyRow> rows;
  std::vector<std::vector<double>> accepted_returns;
  int consecutive_bad = 0;
  for (int round = 0; round < opt.rounds; ++round) {
    GaStudyRow row;
    row.name = "alpha_G_" + std::to_string(round);
    if (consecutive_bad >= 2) {
      rows.push_back(row);  // NA row: search abandoned, as in the paper
      continue;
    }
    ga::GeneticAlgorithm search(dataset,
                                MakeGaConfig(opt, 500 + round),
                                accepted_returns);
    const ga::GaResult r = search.Run();
    row.searched = r.stats.candidates;
    if (r.has_alpha) {
      row.has_alpha = true;
      row.sharpe_test = r.sharpe_test;
      row.ic_test = r.ic_test;
      row.sharpe_valid =
          alphaevolve::eval::SharpeRatio(r.valid_portfolio_returns);
      row.ic_valid = r.best_fitness;
      double best_abs = -1.0;
      for (const auto& acc : accepted_returns) {
        const double c = alphaevolve::eval::PortfolioCorrelation(
            r.valid_portfolio_returns, acc);
        if (std::abs(c) > best_abs) {
          best_abs = std::abs(c);
          row.corr = c;
        }
      }
      if (accepted_returns.empty()) {
        row.corr = std::numeric_limits<double>::quiet_NaN();
      }
      accepted_returns.push_back(r.valid_portfolio_returns);
      consecutive_bad = r.sharpe_test <= 0.0 ? consecutive_bad + 1 : 0;
    } else {
      ++consecutive_bad;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string Num(double v) { return alphaevolve::TablePrinter::Num(v); }

std::string Corr(double v) {
  if (std::isnan(v)) return "NA";
  return alphaevolve::TablePrinter::Num(v);
}

void PrintBanner(const char* title, const BenchOptions& opt,
                 const market::Dataset& dataset) {
  std::printf("=== %s ===\n", title);
  std::printf(
      "synthetic NASDAQ: %d tasks x %d days "
      "(%zu train / %zu valid / %zu test), market seed %llu, "
      "%.1fs per search, %d thread%s%s\n\n",
      dataset.num_tasks(), dataset.num_days(),
      dataset.dates(market::Split::kTrain).size(),
      dataset.dates(market::Split::kValid).size(),
      dataset.dates(market::Split::kTest).size(),
      static_cast<unsigned long long>(opt.market_seed), opt.search_seconds,
      opt.num_threads, opt.num_threads == 1 ? "" : "s",
      opt.full ? " [FULL]" : "");
}

std::string ResultsDir() {
  const std::string dir = "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace aebench
