#include "core/mining.h"

#include <cmath>
#include <limits>

#include "eval/metrics.h"

namespace alphaevolve::core {

WeaklyCorrelatedMiner::WeaklyCorrelatedMiner(EvaluatorPool& pool,
                                             EvolutionConfig base_config)
    : pool_(pool), base_config_(base_config) {}

std::vector<std::vector<double>> WeaklyCorrelatedMiner::AcceptedReturns()
    const {
  std::vector<std::vector<double>> accepted_returns;
  accepted_returns.reserve(accepted_.size());
  for (const AcceptedAlpha& a : accepted_) {
    accepted_returns.push_back(a.metrics.valid_portfolio_returns);
  }
  return accepted_returns;
}

EvolutionResult WeaklyCorrelatedMiner::RunOne(
    const AlphaProgram& init, uint64_t seed,
    std::vector<std::vector<double>> accepted_returns,
    CheckpointSink* checkpoint_sink, const EvolutionCheckpoint* resume) {
  EvolutionConfig config = base_config_;
  config.seed = seed;
  Evolution evolution(pool_, config, std::move(accepted_returns));
  evolution.UseCandidateScorer(scorer_);
  evolution.UseCheckpointSink(checkpoint_sink);
  if (resume != nullptr) evolution.ResumeFrom(*resume);
  return evolution.Run(init);
}

EvolutionResult WeaklyCorrelatedMiner::RunSearch(
    const AlphaProgram& init, uint64_t seed, CheckpointSink* checkpoint_sink,
    const EvolutionCheckpoint* resume) {
  return RunOne(init, seed, AcceptedReturns(), checkpoint_sink, resume);
}

std::vector<EvolutionResult> WeaklyCorrelatedMiner::RunSearches(
    const std::vector<SearchSpec>& specs) {
  std::vector<EvolutionResult> results(specs.size());
  ThreadPool* thread_pool = pool_.thread_pool();
  if (thread_pool == nullptr || specs.size() <= 1) {
    for (size_t s = 0; s < specs.size(); ++s) {
      results[s] = RunOne(specs[s].init, specs[s].seed, AcceptedReturns(),
                          specs[s].checkpoint_sink, specs[s].resume);
    }
  } else {
    // Each search is its own deterministic stream over the shared pool; the
    // nested batch-parallelism inside Evolution::Run is safe because
    // ThreadPool::ParallelFor is re-entrant.
    const std::vector<std::vector<double>> accepted_returns =
        AcceptedReturns();
    thread_pool->ParallelFor(static_cast<int>(specs.size()), [&](int s) {
      const SearchSpec& spec = specs[static_cast<size_t>(s)];
      results[static_cast<size_t>(s)] =
          RunOne(spec.init, spec.seed, accepted_returns, spec.checkpoint_sink,
                 spec.resume);
    });
  }
  return results;
}

void WeaklyCorrelatedMiner::Accept(std::string name,
                                   const AlphaProgram& program,
                                   const AlphaMetrics& metrics) {
  accepted_.push_back({std::move(name), program, metrics});
  if (accept_hook_) accept_hook_(accepted_.back());
}

double WeaklyCorrelatedMiner::CorrelationWithAccepted(
    const AlphaMetrics& metrics) const {
  if (accepted_.empty()) return std::numeric_limits<double>::quiet_NaN();
  double best = 0.0;
  double best_abs = -1.0;
  for (const AcceptedAlpha& a : accepted_) {
    const double corr = eval::PortfolioCorrelation(
        metrics.valid_portfolio_returns, a.metrics.valid_portfolio_returns);
    if (std::abs(corr) > best_abs) {
      best_abs = std::abs(corr);
      best = corr;
    }
  }
  return best;
}

}  // namespace alphaevolve::core
