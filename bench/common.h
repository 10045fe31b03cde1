#ifndef ALPHAEVOLVE_BENCH_COMMON_H_
#define ALPHAEVOLVE_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "core/evaluator_pool.h"
#include "core/evolution.h"
#include "core/generators.h"
#include "core/mining.h"
#include "ga/genetic.h"
#include "market/dataset.h"

namespace aebench {

namespace core = alphaevolve::core;
namespace market = alphaevolve::market;
namespace ga = alphaevolve::ga;

/// Benchmark-wide knobs, overridable via environment variables so the same
/// binaries scale from smoke runs to paper-scale studies:
///   AE_BENCH_STOCKS   universe size before filters   (default 100)
///   AE_BENCH_DAYS     calendar length                (default 500)
///   AE_BENCH_SEED     market seed                    (default 17)
///   AE_BENCH_TIME     per-search wall budget, secs   (default 4)
///   AE_BENCH_ROUNDS   mining rounds                  (default 5)
///   AE_BENCH_THREADS  evaluation worker threads      (default 1)
///   AE_BENCH_FULL     1 → paper-scale grid/budgets   (default 0)
struct BenchOptions {
  int num_stocks = 150;
  int num_days = 560;
  uint64_t market_seed = 17;
  double search_seconds = 5.0;
  int rounds = 5;
  int num_threads = 1;
  bool full = false;

  static BenchOptions FromEnv();
};

/// The calibrated synthetic-NASDAQ dataset all benches share (signal
/// strengths chosen so achievable ICs land in the paper's 0.01–0.07 band;
/// see DESIGN.md "Substitutions").
market::Dataset MakeBenchDataset(const BenchOptions& opt);

/// Evolution configuration matching the paper's §5.2 settings, with the
/// bench time budget and the bench thread count (batch size auto-derived).
core::EvolutionConfig MakeEvolutionConfig(const BenchOptions& opt,
                                          uint64_t seed);

/// Genetic-algorithm baseline configuration with the same budget.
ga::GaConfig MakeGaConfig(const BenchOptions& opt, uint64_t seed);

/// One round of the paper's protocol: run a search from each initialization
/// and keep the one with the highest validation Sharpe ratio (§5.4.1).
struct RoundOutcome {
  bool has_alpha = false;
  core::InitKind init = core::InitKind::kExpert;
  core::EvolutionResult result;
  /// Per-initialization results, in the order of `inits` (for Table 3).
  std::vector<core::EvolutionResult> per_init;
};
RoundOutcome RunRoundBestOfInits(core::WeaklyCorrelatedMiner& miner,
                                 const std::vector<core::InitKind>& inits,
                                 uint64_t seed);

/// Runs one search initialized from a given program (e.g., a previously
/// accepted alpha, the paper's B* round).
core::EvolutionResult RunRoundFrom(core::WeaklyCorrelatedMiner& miner,
                                   const core::AlphaProgram& init,
                                   uint64_t seed);

/// One row of the per-round, per-initialization study (Tables 2/3/4, Fig 6).
struct StudyRow {
  std::string name;          ///< e.g. "alpha_AE_D_2" or "alpha_AE_B0_4".
  bool has_alpha = false;
  double sharpe_test = 0.0;
  double ic_test = 0.0;
  double sharpe_valid = 0.0;
  double ic_valid = 0.0;
  double corr = 0.0;         ///< vs accepted set at round start; NaN round 0.
  bool accepted = false;     ///< won its round and entered A.
  core::EvolutionStats stats;
  std::vector<std::pair<int64_t, double>> trajectory;
  core::AlphaProgram program;
  core::AlphaMetrics metrics;
};

/// Full AlphaEvolve mining study (§5.4.1): rounds 0..R-2 run one search per
/// initialization (D / NOOP / R / NN) under the cutoff vs the accepted set;
/// the round winner (highest validation Sharpe) joins A. The final round is
/// initialized from the accepted alphas themselves (the paper's B* round).
struct AeStudyResult {
  std::vector<std::vector<StudyRow>> rounds;  ///< [round][init index]
  std::vector<core::AcceptedAlpha> accepted;
  std::vector<std::string> accepted_names;
};
AeStudyResult RunAeStudy(core::Evaluator& evaluator, const BenchOptions& opt);

/// Pool-backed variant: per-round searches run concurrently on the pool.
/// Each search is an independent deterministic stream, but the bench
/// configs are time-budgeted, so concurrent searches share the workers and
/// cover fewer candidates per wall-second than they would serially — run
/// with AE_BENCH_THREADS=1 when comparing against serial outputs.
AeStudyResult RunAeStudy(core::EvaluatorPool& pool, const BenchOptions& opt);

/// The genetic-algorithm lineage for Table 2: one GA search per round with
/// the cutoff against its *own* accepted set; stops (NA rows) after two
/// consecutive failed/negative rounds, as the paper stopped alpha_G_4.
struct GaStudyRow {
  std::string name;
  bool has_alpha = false;
  double sharpe_test = 0.0;
  double ic_test = 0.0;
  double sharpe_valid = 0.0;
  double ic_valid = 0.0;
  double corr = 0.0;
  int64_t searched = 0;
};
std::vector<GaStudyRow> RunGaStudy(const market::Dataset& dataset,
                                   const BenchOptions& opt);

/// "0.137851" / "NA" formatting used across the tables.
std::string Num(double v);
std::string Corr(double v);  ///< NaN → "NA" (round 0 has no accepted set).

/// Prints the shared bench banner (dataset shape, budgets).
void PrintBanner(const char* title, const BenchOptions& opt,
                 const market::Dataset& dataset);

/// Directory for CSV side-outputs (created on demand): bench_results/.
std::string ResultsDir();

}  // namespace aebench

#endif  // ALPHAEVOLVE_BENCH_COMMON_H_
