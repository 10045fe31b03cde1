#ifndef ALPHAEVOLVE_CORE_EVOLUTION_H_
#define ALPHAEVOLVE_CORE_EVOLUTION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "core/evaluator_pool.h"
#include "core/fingerprint_cache.h"
#include "core/mutator.h"
#include "core/program.h"

namespace alphaevolve::core {

/// Regularized-evolution search options (paper §3, §5.2).
struct EvolutionConfig {
  int population_size = 100;
  int tournament_size = 10;
  MutatorConfig mutator;

  /// Stop after this many candidate alphas (children generated, whether
  /// pruned, cached, or evaluated). <= 0 means unbounded.
  int64_t max_candidates = 2000;
  /// Wall-clock budget in seconds (the paper's budget notion). <= 0 = none.
  /// The search stops at whichever bound is hit first.
  double time_budget_seconds = 0.0;

  /// Pruning + structural fingerprint (paper §4.2). When false, falls back
  /// to the AutoML-Zero functional fingerprint (probe-evaluation hash) —
  /// the Table-6 `_N` ablation.
  bool use_pruning = true;

  /// Correlation cutoff against the accepted alpha set (15% in §5.4.1).
  double correlation_cutoff = 0.15;

  /// Share one FingerprintCache across a round's multi-seed searches
  /// (WeaklyCorrelatedMiner::RunSearches): every search in a round scores
  /// the same fitness function (same dataset + same cutoff set), so one
  /// search's evaluations short-circuit another's re-discoveries. Search
  /// results stay deterministic; only the per-search hit/evaluated stats
  /// split (see SearchStats) depends on scheduling. Disable for strict
  /// stats parity with serial single-search runs.
  bool share_round_cache = true;

  /// Record (candidates, best fitness) every this many candidates (Fig. 6).
  int64_t trajectory_stride = 50;

  uint64_t seed = 42;

  /// Worker threads for batched candidate scoring. When Evolution is built
  /// from a bare Evaluator and num_threads > 1, it spins up an internal
  /// EvaluatorPool with the evaluator's dataset and config; when built from
  /// an external EvaluatorPool, the pool's own thread count governs.
  int num_threads = 1;

  /// Children generated, scored, and inserted per evolution step (the batch
  /// width B of batched regularized evolution). Tournament parents for a
  /// batch are drawn before any of its children enter the population.
  /// <= 0 picks 4 * num_threads (1 when serial). B = 1 reproduces the serial
  /// engine's trajectory bit-for-bit; for any fixed B >= 1 the search is
  /// deterministic in the seed and independent of the thread count.
  int batch_size = 0;

  /// Evaluation batches the driver may keep in flight while it generates
  /// (mutates, prunes, fingerprints) the next one; must be >= 0. Depth 0 is
  /// lockstep: each batch is scored and committed before the next is
  /// generated. At depth >= 1 batch N evaluates on the pool while batch N+1
  /// is generated, with results committed strictly in batch order —
  /// accepted alphas, stats, trajectory, and cache contents are
  /// bit-identical to depth 0 for the same (seed, batch_size) at every
  /// depth and thread count (tournament draws against a still-evaluating
  /// member wait for exactly that member's fitness, never the whole batch).
  /// Without worker threads (a bare Evaluator, or a pool without a
  /// ThreadPool) the driver runs at depth 0 whatever is set here. Depths > 1
  /// help when generation cost per batch approaches evaluation cost
  /// (functional fingerprints, large programs).
  int pipeline_depth = 1;
};

/// Search counters. `candidates` = pruned_redundant + cache_hits + evaluated;
/// Table 6's "number of searched alphas" is `candidates`.
struct EvolutionStats {
  int64_t candidates = 0;
  int64_t evaluated = 0;
  int64_t pruned_redundant = 0;
  int64_t cache_hits = 0;
  int64_t cutoff_discarded = 0;
  /// Scenario-fitness accounting (0 without a CandidateScorer): candidates
  /// rejected by the cheap-first baseline screen, and total full regime
  /// evaluations paid for (screened-out candidates contribute 1 — the
  /// baseline — instead of the suite size; the gap is the screen's saving).
  int64_t screened_out = 0;
  int64_t scenario_evals = 0;
  /// Evaluations abandoned by the watchdog (EvaluatorConfig::
  /// eval_budget_seconds); a subset of `evaluated`, scored kInvalidFitness.
  int64_t eval_timeouts = 0;
  double elapsed_seconds = 0.0;

  /// Accumulates `other` into this record: counters add, elapsed takes the
  /// max (parallel searches overlap in wall-clock). The single merge point
  /// for every consumer (miner, examples, SearchStats::FromEvolution).
  void Merge(const EvolutionStats& other) {
    candidates += other.candidates;
    evaluated += other.evaluated;
    pruned_redundant += other.pruned_redundant;
    cache_hits += other.cache_hits;
    cutoff_discarded += other.cutoff_discarded;
    screened_out += other.screened_out;
    scenario_evals += other.scenario_evals;
    eval_timeouts += other.eval_timeouts;
    if (other.elapsed_seconds > elapsed_seconds) {
      elapsed_seconds = other.elapsed_seconds;
    }
  }
};

/// Search output.
struct EvolutionResult {
  bool has_alpha = false;        ///< False if every candidate was invalid.
  /// True when a stop token (UseStopToken) ended the run before its budget:
  /// the result reflects only the batches committed so far, and — with a
  /// checkpoint sink installed — the newest snapshot holds exactly that
  /// barrier state, so a resumed run finishes bit-identical to an
  /// uninterrupted one.
  bool stopped = false;
  AlphaProgram best;             ///< Best-fitness member of the final population.
  double best_fitness = kInvalidFitness;
  /// Full metrics (incl. test) of `best`, always on the *baseline* panel:
  /// with a CandidateScorer installed, `best_fitness` is the scorer's
  /// aggregate while these remain the reportable baseline numbers.
  AlphaMetrics best_metrics;
  EvolutionStats stats;
  /// (candidates searched, best fitness so far) samples — Fig. 6 series.
  std::vector<std::pair<int64_t, double>> trajectory;
};

/// A search's complete committed state at one batch barrier — everything a
/// later process needs to continue the search bit-identically: the RNG
/// cursor (raw xoshiro words, no draw replay), the population with resolved
/// fitnesses, counters, the trajectory so far, and the fingerprint-cache
/// contents in canonical (sorted) order. Captured only between batches, when
/// no evaluation is in flight: the driver drains its in-flight batches
/// first, which leaves exactly the depth-0 state at the same committed-batch
/// count, so a snapshot is the same at every pipeline depth. The ckpt layer
/// serializes this struct; core stays free of any file-format dependency.
struct EvolutionCheckpoint {
  uint64_t config_seed = 0;  ///< EvolutionConfig::seed that produced it.
  int64_t batches_committed = 0;
  /// Committed counters. elapsed_seconds holds the wall-clock spent up to
  /// the snapshot; a resumed run accumulates on top of it. It is the one
  /// field that can never be bitwise-reproduced — parity checks exclude it.
  EvolutionStats stats;
  std::array<uint64_t, 4> rng_state{};
  double best_so_far = kInvalidFitness;
  std::vector<std::pair<int64_t, double>> trajectory;
  struct MemberState {
    AlphaProgram program;
    double fitness = kInvalidFitness;
  };
  std::vector<MemberState> population;  ///< oldest (front) to newest.
  /// Fingerprint-cache contents, sorted by fingerprint.
  std::vector<std::pair<uint64_t, double>> cache_entries;
};

/// Where Evolution hands off snapshots. Implemented by ckpt::CheckpointWriter
/// (temp file + fsync + atomic rename with generation retention); tests plug
/// in in-memory sinks.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  /// Called once per batch commit with the committed-batch count. Returning
  /// true asks the driver to capture a snapshot at the next safe barrier,
  /// once its in-flight batches have drained (at depth 0, immediately). The
  /// sink owns the cadence policy — every N batches or every N seconds.
  virtual bool WantCheckpoint(int64_t batches_committed) = 0;
  /// Receives the captured snapshot; the sink owns durability and is free
  /// to fail internally (a failed write must not stop the search).
  virtual void WriteCheckpoint(const EvolutionCheckpoint& checkpoint) = 0;
};

/// Regularized evolution (tournament selection + aging), with the paper's
/// redundancy pruning, evaluation-free fingerprint cache and
/// weak-correlation cutoff.
///
/// Candidates are scored in batches through a deterministic pipeline:
/// mutate on the driving thread → prune/fingerprint → resolve cache hits and
/// intra-batch duplicates in batch order → evaluate the unique remainder in
/// parallel on the evaluator pool (including the correlation cutoff) →
/// apply stats/trajectory/population updates in batch order. At
/// `pipeline_depth` 0 the stages run in lockstep; at depth >= 1 they
/// overlap: while a batch's unique candidates evaluate asynchronously, the
/// driving thread already generates the next batch, probing speculatively
/// against the in-flight frontier and reconciling at commit. Results depend
/// only on (seed, batch_size), never on the thread count or the pipeline
/// depth.
class Evolution {
 public:
  /// `accepted_valid_returns` holds the validation portfolio-return series
  /// of the already-accepted alpha set A; candidates whose series correlates
  /// above the cutoff with any of them are discarded (fitness = -1).
  /// If config.num_threads > 1, an internal EvaluatorPool over the
  /// evaluator's dataset provides the workers; otherwise every batch
  /// evaluates inline on `evaluator`.
  Evolution(Evaluator& evaluator, EvolutionConfig config,
            std::vector<std::vector<double>> accepted_valid_returns = {});

  /// Shares an external pool (e.g. with other concurrent searches); the
  /// pool's thread count governs parallelism.
  Evolution(EvaluatorPool& pool, EvolutionConfig config,
            std::vector<std::vector<double>> accepted_valid_returns = {});

  /// Runs the search from the given starting parent.
  EvolutionResult Run(const AlphaProgram& init);

  /// Scores through `cache` instead of the internal per-run cache. All
  /// sharers must evaluate the same fitness function — same dataset, config
  /// and correlation-cutoff set — so a hit returns exactly the fitness this
  /// search would have computed itself (a round of multi-seed searches
  /// qualifies; see WeaklyCorrelatedMiner::RunSearches). The shared cache is
  /// never cleared by Run. Search *results* stay deterministic; only the
  /// cache_hits / evaluated stats split becomes schedule-dependent when
  /// sharers run concurrently.
  void UseSharedCache(FingerprintCache* cache);

  /// Installs a pluggable fitness (e.g. scenario::ScenarioFitness): every
  /// unique candidate is scored through `scorer->Score` — which also owns
  /// the correlation cutoff — instead of the plain baseline evaluation.
  /// The scorer must be thread-safe and outlive Run; nullptr restores the
  /// default. Cache semantics are unchanged (the cached value is whatever
  /// fitness the scorer returned), and so is the determinism guarantee
  /// across threads and depths, since Score is deterministic in (program,
  /// seed).
  void UseCandidateScorer(CandidateScorer* scorer) { scorer_ = scorer; }

  /// Installs a cooperative cancellation token (nullptr removes it): the
  /// driver polls it at every batch barrier — the same seam the budget gate
  /// uses — and stops generating once it reads true. It drains its in-flight
  /// batches first, so the run always ends at committed state; with a
  /// checkpoint sink installed a final snapshot of that barrier is forced
  /// (whatever the sink's cadence), which is what lets an op-level cancel or
  /// deadline leave a resumable stream behind. The token may be flipped from
  /// any thread; an acquire load observes it.
  void UseStopToken(const std::atomic<bool>* stop) { stop_token_ = stop; }

  /// Installs a checkpoint sink consulted at every batch-commit barrier
  /// (nullptr removes it). Checkpointing requires the per-run cache — a
  /// shared round cache mixes siblings' entries into the snapshot and makes
  /// the stats split schedule-dependent, so Run refuses the combination.
  /// Checkpointing never perturbs results: captures happen strictly between
  /// batches from already-committed state.
  void UseCheckpointSink(CheckpointSink* sink) { ckpt_sink_ = sink; }

  /// Arms the next Run to continue from `checkpoint` instead of starting
  /// fresh: RNG cursor, population, stats, trajectory, and cache contents
  /// are restored before the first batch. The run must use the same config
  /// (seed, batch size, population size ...) that produced the snapshot;
  /// the seed is checked, the rest is the caller's contract. Consumed by
  /// the next Run. For a candidate-bounded search the resumed run finishes
  /// bit-identical to the uninterrupted one; elapsed_seconds accumulates
  /// (prior + current wall-clock) and is the only non-reproducible field.
  void ResumeFrom(EvolutionCheckpoint checkpoint) {
    resume_ = std::move(checkpoint);
  }

  /// Sorted contents of the cache the last Run populated — what snapshots
  /// store; exposed for resume-parity tests.
  std::vector<std::pair<uint64_t, double>> CacheSnapshot() const {
    return cache_->Snapshot();
  }

 private:
  /// One candidate moving through the scoring pipeline.
  struct Candidate {
    enum class Outcome {
      kPrunedRedundant,  ///< structurally redundant, never evaluated
      kCacheHit,         ///< fingerprint already in the cache (or frontier)
      kDuplicate,        ///< same fingerprint as an earlier batch member
      kEvaluated,        ///< full evaluation (possibly cutoff-discarded)
    };
    AlphaProgram program;       ///< the child, as mutated
    AlphaProgram pruned;        ///< pruned form (structural mode only)
    uint64_t fingerprint = 0;
    uint64_t eval_seed = 0;
    Outcome outcome = Outcome::kEvaluated;
    int duplicate_of = -1;      ///< batch index of the first occurrence
    double fitness = kInvalidFitness;
    bool cutoff_discarded = false;
    bool screened_out = false;   ///< scenario screen rejection (scorer only)
    bool timed_out = false;      ///< abandoned by the evaluation watchdog
    int regimes_evaluated = 0;   ///< full evaluations paid (scorer only)

    // Pipeline state.
    /// Published by the evaluating worker once `fitness`/`cutoff_discarded`
    /// are final; the generator reads them only after an acquire load.
    std::atomic<bool> ready{false};
    /// Frontier hit (depth >= 1 only): the still-in-flight candidate (of an
    /// older batch) this one's fitness will come from; resolved when that
    /// batch commits.
    Candidate* hit_source = nullptr;
    int64_t hit_source_batch = -1;  ///< serial of hit_source's batch
  };

  /// Population entry. Children enter when their batch is generated, with
  /// their evaluation possibly still in flight: `pending` points at the
  /// candidate that will supply `fitness` (resolved lazily by a tournament
  /// draw, or at that batch's commit — whichever comes first). At depth 0
  /// every member is resolved before the next batch draws.
  struct Member {
    AlphaProgram program;
    double fitness = kInvalidFitness;
    Candidate* pending = nullptr;
    int64_t pending_batch = -1;  ///< serial of the batch owning `pending`
  };

  /// One generated batch, in flight until it commits.
  struct PipelineBatch {
    int64_t serial = 0;        ///< generation (= commit) order
    std::vector<Candidate> candidates;
    std::vector<int> to_evaluate;    ///< indices of unique evaluations
    std::atomic<int> items_done{0};  ///< evaluations finished so far
  };

  void Init(EvolutionConfig config);
  int EffectiveBatchSize() const;
  /// Runs fn(evaluator, i) for i in [0, n), parallel when a pool is set.
  void ForEachEvaluator(int n, const std::function<void(Evaluator&, int)>& fn);
  /// Stage 1: prune + structural fingerprint on the driving thread, or
  /// probe-evaluate functional fingerprints on the pool.
  void FingerprintBatch(std::vector<Candidate>& batch);
  /// Stage 3 body: fitness (EvaluateFitness, with the long-short book only
  /// when the accepted set is non-empty) + correlation cutoff + cache
  /// publish for one unique candidate. Deterministic in (program,
  /// eval_seed).
  void EvaluateCandidate(Evaluator& evaluator, Candidate& c);
  /// Folds one scored candidate into the stats, in batch order.
  void ApplyScored(const Candidate& candidate);
  /// Re-evaluates the winning program with test-side metrics included.
  AlphaMetrics EvaluateFull(const AlphaProgram& program);
  /// Snapshots the committed state at a batch barrier. Every population
  /// member's fitness must already be resolved (checked).
  EvolutionCheckpoint MakeCheckpoint(int64_t batches_committed,
                                     double elapsed, double best_so_far,
                                     const EvolutionResult& result,
                                     const std::deque<Member>& population);
  /// The batch driver: generates, evaluates and commits batches with up to
  /// `pipeline_depth` of them in flight (0 without worker threads).
  EvolutionResult Drive(const AlphaProgram& init);
  /// Final selection + full re-evaluation of the winner.
  void FinishResult(EvolutionResult& result, std::deque<Member>& population);

  Evaluator* serial_evaluator_ = nullptr;  ///< set when no pool drives us
  EvaluatorPool* pool_ = nullptr;          ///< external or owned pool
  std::unique_ptr<EvaluatorPool> owned_pool_;
  EvolutionConfig config_;
  Mutator mutator_;
  std::vector<std::vector<double>> accepted_valid_returns_;
  FingerprintCache owned_cache_;
  FingerprintCache* cache_ = &owned_cache_;  ///< may point to a shared cache
  CandidateScorer* scorer_ = nullptr;        ///< optional pluggable fitness
  CheckpointSink* ckpt_sink_ = nullptr;      ///< optional snapshot consumer
  const std::atomic<bool>* stop_token_ = nullptr;  ///< optional cancel token
  std::optional<EvolutionCheckpoint> resume_;  ///< armed start state
  double elapsed_base_ = 0.0;  ///< wall-clock inherited from a resume
  EvolutionStats stats_;
  Rng rng_{0};
};

}  // namespace alphaevolve::core

#endif  // ALPHAEVOLVE_CORE_EVOLUTION_H_
