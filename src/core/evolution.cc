#include "core/evolution.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "core/pruning.h"
#include "eval/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/threadpool.h"

namespace alphaevolve::core {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Semantic search counters. Incremented only from ApplyScored, which runs
/// on the driving thread in strict batch/commit order — so with telemetry
/// enabled their values are invariant in thread count and pipeline depth,
/// matching EvolutionStats exactly. Leaky refs: registry metrics are
/// process-lived.
struct SearchCounters {
  obs::Counter& candidates;
  obs::Counter& evaluated;
  obs::Counter& cache_hits;
  obs::Counter& pruned_redundant;
  obs::Counter& cutoff_discarded;
  obs::Counter& screened_out;
  obs::Counter& scenario_evals;
  obs::Counter& eval_timeouts;
  obs::Gauge& inflight_batches;

  static SearchCounters& Get() {
    static SearchCounters* c = [] {
      auto& reg = obs::MetricsRegistry::Default();
      return new SearchCounters{reg.GetCounter("evolution.candidates"),
                                reg.GetCounter("evolution.evaluated"),
                                reg.GetCounter("evolution.cache_hits"),
                                reg.GetCounter("evolution.pruned_redundant"),
                                reg.GetCounter("evolution.cutoff_discarded"),
                                reg.GetCounter("evolution.screened_out"),
                                reg.GetCounter("evolution.scenario_evals"),
                                reg.GetCounter("evolution.eval_timeouts"),
                                reg.GetGauge("evolution.inflight_batches")};
    }();
    return *c;
  }
};

}  // namespace

Evolution::Evolution(EvaluatorPool& pool, EvolutionConfig config,
                     std::vector<std::vector<double>> accepted_valid_returns)
    : pool_(pool),
      config_(config),
      mutator_(config.mutator),
      accepted_valid_returns_(std::move(accepted_valid_returns)) {
  AE_CHECK(config.population_size >= 2);
  AE_CHECK(config.tournament_size >= 1 &&
           config.tournament_size <= config.population_size);
  AE_CHECK(config.pipeline_depth >= 0);
}

int Evolution::EffectiveBatchSize() const {
  if (config_.batch_size > 0) return config_.batch_size;
  const int threads = pool_.num_threads();
  return threads > 1 ? 4 * threads : 1;
}

void Evolution::FingerprintBatch(std::vector<Candidate>& batch) {
  AE_SPAN("evolution.fingerprint");
  // Structural mode prunes and hashes on the driving thread (microseconds
  // per candidate, §4.2); functional mode needs a probe evaluation per
  // candidate, so that runs on the pool. Its wait helps drain the pool's
  // queue, the in-flight batches' evaluations included.
  if (config_.use_pruning) {
    for (Candidate& c : batch) {
      PruneResult pr = PruneRedundant(c.program, config_.mutator.limits);
      if (pr.redundant) {
        c.outcome = Candidate::Outcome::kPrunedRedundant;
        c.fitness = kInvalidFitness;
        continue;
      }
      c.pruned = std::move(pr.pruned);
      c.fingerprint = Fingerprint(c.pruned);
      c.eval_seed = c.fingerprint;
    }
  } else {
    for (Candidate& c : batch) {
      c.eval_seed = HashString(c.program.ToString());
    }
    TaskGroup probes(pool_.thread_pool());
    pool_.ForEachAsync(static_cast<int>(batch.size()),
                       [&batch](Evaluator& evaluator, int i) {
                         Candidate& c = batch[static_cast<size_t>(i)];
                         c.fingerprint =
                             evaluator.ProbeFingerprint(c.program, c.eval_seed);
                       },
                       probes);
    probes.WaitAll();
  }
}

void Evolution::EvaluateCandidate(Evaluator& evaluator, Candidate& c) {
  AE_SPAN("evolution.evaluate");
  // Fitness plus the weak-correlation cutoff (§5.4.1; the accepted set is
  // immutable for the whole run, so workers read it lock-free). The cutoff
  // is the only reader of the long-short book here, so with nothing
  // accepted yet (round 1 of a mining unit, every service job) the book is
  // never built. Every computed value is deterministic in (program, seed),
  // so scheduling cannot change any result; the driving thread publishes it
  // to the cache at commit.
  const AlphaProgram& program = config_.use_pruning ? c.pruned : c.program;
  if (scorer_ != nullptr) {
    const ScoreOutcome outcome =
        scorer_->Score(evaluator, program, c.eval_seed,
                       accepted_valid_returns_, config_.correlation_cutoff);
    c.fitness = outcome.fitness;
    c.cutoff_discarded = outcome.cutoff_discarded;
    c.screened_out = outcome.screened_out;
    c.timed_out = outcome.baseline.timed_out;
    c.regimes_evaluated = outcome.regimes_evaluated;
    return;
  }
  const AlphaMetrics metrics = evaluator.EvaluateFitness(
      program, c.eval_seed,
      /*with_book=*/!accepted_valid_returns_.empty());
  c.timed_out = metrics.timed_out;
  double fitness = metrics.valid ? metrics.ic_valid : kInvalidFitness;
  if (metrics.valid &&
      eval::BreaksCorrelationCutoff(metrics.valid_portfolio_returns,
                                    accepted_valid_returns_,
                                    config_.correlation_cutoff)) {
    c.cutoff_discarded = true;
    fitness = kInvalidFitness;
  }
  c.fitness = fitness;
}

void Evolution::ApplyScored(const Candidate& candidate) {
  ++stats_.candidates;
  switch (candidate.outcome) {
    case Candidate::Outcome::kPrunedRedundant:
      ++stats_.pruned_redundant;
      break;
    case Candidate::Outcome::kCacheHit:
    case Candidate::Outcome::kDuplicate:
      ++stats_.cache_hits;
      break;
    case Candidate::Outcome::kEvaluated:
      ++stats_.evaluated;
      if (candidate.cutoff_discarded) ++stats_.cutoff_discarded;
      if (candidate.screened_out) ++stats_.screened_out;
      if (candidate.timed_out) ++stats_.eval_timeouts;
      stats_.scenario_evals += candidate.regimes_evaluated;
      break;
  }
  if (obs::Enabled()) {
    SearchCounters& c = SearchCounters::Get();
    c.candidates.Add();
    switch (candidate.outcome) {
      case Candidate::Outcome::kPrunedRedundant:
        c.pruned_redundant.Add();
        break;
      case Candidate::Outcome::kCacheHit:
      case Candidate::Outcome::kDuplicate:
        c.cache_hits.Add();
        break;
      case Candidate::Outcome::kEvaluated:
        c.evaluated.Add();
        if (candidate.cutoff_discarded) c.cutoff_discarded.Add();
        if (candidate.screened_out) c.screened_out.Add();
        if (candidate.timed_out) c.eval_timeouts.Add();
        if (candidate.regimes_evaluated > 0) {
          c.scenario_evals.Add(candidate.regimes_evaluated);
        }
        break;
    }
  }
}

EvolutionCheckpoint Evolution::MakeCheckpoint(
    int64_t batches_committed, double elapsed, double best_so_far,
    const EvolutionResult& result, const std::deque<Member>& population) {
  AE_SPAN("checkpoint.capture");
  EvolutionCheckpoint ck;
  ck.config_seed = config_.seed;
  ck.batches_committed = batches_committed;
  ck.stats = stats_;
  ck.stats.elapsed_seconds = elapsed;
  ck.rng_state = rng_.state();
  ck.best_so_far = best_so_far;
  ck.trajectory = result.trajectory;
  ck.population.reserve(population.size());
  for (const Member& m : population) {
    // Snapshots capture only committed state: at a barrier every member's
    // fitness is resolved (the driver drained its in-flight batches first).
    AE_CHECK_MSG(m.pending == nullptr,
                 "checkpoint capture with an unresolved population member");
    ck.population.push_back({m.program, m.fitness});
  }
  ck.cache_entries = CacheSnapshot();
  return ck;
}

std::vector<std::pair<uint64_t, double>> Evolution::CacheSnapshot() const {
  std::vector<std::pair<uint64_t, double>> entries(cache_.begin(),
                                                   cache_.end());
  std::sort(entries.begin(), entries.end());
  return entries;
}

AlphaMetrics Evolution::EvaluateFull(const AlphaProgram& program) {
  const uint64_t seed = config_.use_pruning
                            ? Fingerprint(program)
                            : HashString(program.ToString());
  EvaluatorPool::Lease lease(pool_);
  return lease->Evaluate(program, seed, /*include_test=*/true);
}

void Evolution::FinishResult(EvolutionResult& result,
                             std::deque<Member>& population) {
  // Final selection: best alpha in the population (§3 step 5).
  const Member* best = nullptr;
  for (const Member& m : population) {
    if (m.fitness > kInvalidFitness &&
        (best == nullptr || m.fitness > best->fitness)) {
      best = &m;
    }
  }
  if (best != nullptr) {
    result.has_alpha = true;
    result.best = best->program;
    result.best_fitness = best->fitness;
    // Re-evaluate exactly what the scoring pipeline evaluated (the pruned
    // form, with the fingerprint seed): pruned-away random ops would
    // otherwise shift the RNG stream and change the result.
    if (config_.use_pruning) {
      result.best_metrics = EvaluateFull(
          PruneRedundant(best->program, config_.mutator.limits).pruned);
    } else {
      result.best_metrics = EvaluateFull(best->program);
    }
  }
}

EvolutionResult Evolution::Run(const AlphaProgram& init) {
  rng_ = Rng(config_.seed);
  cache_.clear();
  stats_ = EvolutionStats{};
  elapsed_base_ = 0.0;
  if (resume_.has_value()) {
    AE_CHECK_MSG(resume_->config_seed == config_.seed,
                 "resume checkpoint was written under a different seed");
    rng_.set_state(resume_->rng_state);
    stats_ = resume_->stats;
    elapsed_base_ = resume_->stats.elapsed_seconds;
    cache_.insert(resume_->cache_entries.begin(),
                  resume_->cache_entries.end());
  }
  return Drive(init);
}

// The batch driver. One driving thread generates batches — mutation,
// pruning, fingerprinting, cache resolution, population insertion — while up
// to `depth` earlier batches evaluate on the pool; commits happen strictly
// in batch order. Depth 0 is lockstep: each batch commits before the next is
// generated, so the frontier below is always empty and no population member
// is ever pending. Bit-parity of every depth with depth 0 rests on three
// invariants:
//
//  1. Every value the generator consumes is either deterministic (the RNG
//     stream, program mutations, fingerprints) or an exact fitness: a
//     tournament draw that lands on a still-in-flight member waits for that
//     one member's fitness (helping the pool while it does), never guesses.
//  2. The in-flight frontier (fingerprint → evaluating candidate) stands in
//     for exactly the cache inserts depth 0 would have committed before this
//     batch; probing frontier-then-cache therefore reproduces the depth-0
//     hit/evaluated split — and the cache ends with identical contents — at
//     any depth.
//  3. Stats, trajectory, cutoff accounting and cache inserts are applied at
//     commit, in batch order, from fitnesses that are final by then.
EvolutionResult Evolution::Drive(const AlphaProgram& init) {
  const auto start = Clock::now();
  const int batch_cap = EffectiveBatchSize();
  ThreadPool* workers = pool_.thread_pool();
  // Overlapping generation with evaluation needs workers to overlap with:
  // without any, batches evaluate inline at depth 0.
  const int depth = workers != nullptr ? config_.pipeline_depth : 0;

  EvolutionResult result;
  std::deque<Member> population;

  // Destruction order (reverse of declaration): `group` goes first and its
  // destructor waits out any still-winding-down worker task, so the batches
  // in `in_flight` can never be freed under a live task.
  std::deque<std::unique_ptr<PipelineBatch>> in_flight;
  TaskGroup group(workers);
  // Fingerprints whose unique evaluation is in flight (uncommitted), with
  // the candidate that owns it. Touched only by the driving thread.
  std::unordered_map<uint64_t, std::pair<Candidate*, int64_t>> frontier;
  int64_t planned_candidates = 0;  // committed + in flight
  int64_t next_serial = 0;

  // Exact fitness of a population member, waiting (and helping the pool)
  // if its evaluation is still in flight. Resolution is cached so each
  // member waits at most once.
  auto fitness_of = [&](Member& m) -> double {
    if (m.pending != nullptr) {
      Candidate* c = m.pending;
      if (!c->ready.load(std::memory_order_acquire)) {
        AE_SPAN("evolution.tournament_wait");
        group.WaitUntil(
            [c] { return c->ready.load(std::memory_order_acquire); });
      }
      m.fitness = c->fitness;
      m.pending = nullptr;
    }
    return m.fitness;
  };

  // The budget gate for *generation* counts planned (not yet committed)
  // candidates, so the batch-size sequence matches depth 0's, where each
  // batch is fully committed before the next size is computed.
  auto out_of_budget = [&]() {
    if (config_.max_candidates > 0 &&
        planned_candidates >= config_.max_candidates) {
      return true;
    }
    return config_.time_budget_seconds > 0.0 &&
           elapsed_base_ + Seconds(start, Clock::now()) >=
               config_.time_budget_seconds;
  };
  // Cancellation parks generation exactly like an exhausted budget: the
  // driver loop below then drains every in-flight batch, so the run ends on
  // committed state (identical at every depth).
  auto stop_requested = [&]() {
    return stop_token_ != nullptr &&
           stop_token_->load(std::memory_order_acquire);
  };

  double best_so_far = kInvalidFitness;
  auto record_trajectory = [&](double fitness) {
    best_so_far = std::max(best_so_far, fitness);
    if (config_.trajectory_stride > 0 &&
        stats_.candidates % config_.trajectory_stride == 0) {
      result.trajectory.emplace_back(stats_.candidates, best_so_far);
    }
  };

  // Resume: re-enter the committed state (Run already restored the RNG,
  // stats and cache). A snapshot is always drained state, so it resumes at
  // any depth; a search killed during P0 continues P0 naturally, since the
  // phase is read off the population size.
  int64_t batches_committed = 0;
  if (resume_.has_value()) {
    for (const EvolutionCheckpoint::MemberState& m : resume_->population) {
      population.push_back({m.program, m.fitness});
    }
    best_so_far = resume_->best_so_far;
    result.trajectory = resume_->trajectory;
    batches_committed = resume_->batches_committed;
    planned_candidates = stats_.candidates;  // committed == planned so far
    resume_.reset();
  }
  bool checkpoint_pending = false;

  auto generate_batch = [&]() {
    AE_SPAN("evolution.generate");
    // Land exactly on max_candidates, and during P0 never overshoot the
    // population size.
    int64_t b64 = batch_cap;
    if (config_.max_candidates > 0) {
      b64 = std::min(b64, config_.max_candidates - planned_candidates);
    }
    const bool init_phase =
        static_cast<int>(population.size()) < config_.population_size;
    if (init_phase) {
      b64 = std::min<int64_t>(
          b64, config_.population_size - static_cast<int>(population.size()));
    }
    const int b = static_cast<int>(b64);
    auto batch = std::make_unique<PipelineBatch>();
    batch->serial = next_serial++;
    batch->candidates = std::vector<Candidate>(static_cast<size_t>(b));
    planned_candidates += b;

    // Mutation: P0 mutates the starting parent (§3 step 1); afterwards all
    // B tournament parents are drawn against the population as of the
    // previous batch's (speculative) insertion — the committed pre-batch
    // population of depth 0, since insertions happen in generation order.
    for (Candidate& c : batch->candidates) {
      if (init_phase) {
        c.program = mutator_.Mutate(init, rng_);
        continue;
      }
      int best_idx = rng_.UniformInt(static_cast<int>(population.size()));
      for (int t = 1; t < config_.tournament_size; ++t) {
        const int idx = rng_.UniformInt(static_cast<int>(population.size()));
        if (fitness_of(population[static_cast<size_t>(idx)]) >
            fitness_of(population[static_cast<size_t>(best_idx)])) {
          best_idx = idx;
        }
      }
      c.program =
          mutator_.Mutate(population[static_cast<size_t>(best_idx)].program,
                          rng_);
    }

    // Stage 1 — fingerprints (probe evaluations, in functional mode, run a
    // synchronous fan-out; the in-flight batches keep the workers fed
    // through it).
    FingerprintBatch(batch->candidates);

    // Stage 2 — speculative cache resolution in batch order. The frontier
    // is probed before the cache: an in-flight fingerprint would already be
    // a committed insert by the time depth 0 scored this batch. An
    // intra-batch duplicate is exactly a cache hit against an earlier
    // insert, resolved from its first occurrence at commit.
    std::unordered_map<uint64_t, int> first_with_fingerprint;
    for (int i = 0; i < b; ++i) {
      Candidate& c = batch->candidates[static_cast<size_t>(i)];
      if (c.outcome == Candidate::Outcome::kPrunedRedundant) continue;
      if (const auto it = frontier.find(c.fingerprint);
          it != frontier.end()) {
        c.outcome = Candidate::Outcome::kCacheHit;
        c.hit_source = it->second.first;
        c.hit_source_batch = it->second.second;
        continue;
      }
      if (const auto it = cache_.find(c.fingerprint); it != cache_.end()) {
        c.outcome = Candidate::Outcome::kCacheHit;
        c.fitness = it->second;
        continue;
      }
      const auto [it, inserted] =
          first_with_fingerprint.try_emplace(c.fingerprint, i);
      if (!inserted) {
        c.outcome = Candidate::Outcome::kDuplicate;
        c.duplicate_of = it->second;
        continue;
      }
      batch->to_evaluate.push_back(i);
    }
    // Only now does the batch join the frontier: its own repeats must stay
    // kDuplicate.
    for (const int idx : batch->to_evaluate) {
      Candidate& c = batch->candidates[static_cast<size_t>(idx)];
      frontier.emplace(c.fingerprint, std::make_pair(&c, batch->serial));
    }

    // Population update (speculative): the programs enter now so the next
    // batch's tournaments see them; in-flight fitnesses resolve via
    // `pending`. Aging pops the oldest member per child once P0 is full;
    // the push/pop sequence equals a commit-time update because batches
    // are generated in commit order.
    for (int i = 0; i < b; ++i) {
      Candidate& c = batch->candidates[static_cast<size_t>(i)];
      Member m;
      m.program = c.program;  // the candidate keeps its own for evaluation
      switch (c.outcome) {
        case Candidate::Outcome::kEvaluated:
          m.pending = &c;
          m.pending_batch = batch->serial;
          break;
        case Candidate::Outcome::kDuplicate:
          m.pending =
              &batch->candidates[static_cast<size_t>(c.duplicate_of)];
          m.pending_batch = batch->serial;
          break;
        case Candidate::Outcome::kCacheHit:
          if (c.hit_source != nullptr) {
            m.pending = c.hit_source;
            m.pending_batch = c.hit_source_batch;
          } else {
            m.fitness = c.fitness;
          }
          break;
        case Candidate::Outcome::kPrunedRedundant:
          m.fitness = c.fitness;
          break;
      }
      population.push_back(std::move(m));
      if (!init_phase) population.pop_front();
    }

    // Stage 3 — launch the unique evaluations asynchronously and return
    // without waiting; per-item completions are published for hazard
    // resolution and the batch counter for commit. A one-thread pool runs
    // them inline before returning.
    PipelineBatch* bp = batch.get();
    auto evaluate = [this, bp, &group](Evaluator& evaluator, int k) {
      Candidate& c = bp->candidates[static_cast<size_t>(
          bp->to_evaluate[static_cast<size_t>(k)])];
      EvaluateCandidate(evaluator, c);
      c.ready.store(true, std::memory_order_release);
      bp->items_done.fetch_add(1, std::memory_order_acq_rel);
      group.Notify();
    };
    pool_.ForEachAsync(static_cast<int>(bp->to_evaluate.size()), evaluate,
                       group);
    in_flight.push_back(std::move(batch));
    SearchCounters::Get().inflight_batches.Set(
        static_cast<int64_t>(in_flight.size()));
  };

  auto commit_oldest = [&]() {
    PipelineBatch& batch = *in_flight.front();
    const int n_eval = static_cast<int>(batch.to_evaluate.size());
    {
      AE_SPAN("evolution.commit_wait");
      group.WaitUntil([&batch, n_eval] {
        return batch.items_done.load(std::memory_order_acquire) >= n_eval;
      });
    }
    AE_SPAN("evolution.commit");

    // Stage 4 + commit, in batch order: duplicates take their first
    // occurrence's final (post-cutoff) fitness, and frontier-hit fitnesses
    // were filled when their source batch committed, before this one.
    for (Candidate& c : batch.candidates) {
      if (c.outcome == Candidate::Outcome::kDuplicate) {
        c.fitness =
            batch.candidates[static_cast<size_t>(c.duplicate_of)].fitness;
      }
      ApplyScored(c);
      record_trajectory(c.fitness);
    }

    // Move the batch's unique evaluations from the frontier into the cache,
    // and resolve every outstanding reference into the batch before its
    // candidates are destroyed: younger in-flight frontier hits, and
    // population members still awaiting one of its fitnesses.
    for (const int idx : batch.to_evaluate) {
      const Candidate& c = batch.candidates[static_cast<size_t>(idx)];
      cache_.emplace(c.fingerprint, c.fitness);
      frontier.erase(c.fingerprint);
    }
    for (size_t y = 1; y < in_flight.size(); ++y) {
      for (Candidate& c : in_flight[y]->candidates) {
        if (c.hit_source_batch == batch.serial) {
          c.fitness = c.hit_source->fitness;
          c.hit_source = nullptr;
          c.hit_source_batch = -1;
        }
      }
    }
    for (Member& m : population) {
      if (m.pending != nullptr && m.pending_batch == batch.serial) {
        m.fitness = m.pending->fitness;
        m.pending = nullptr;
      }
    }
    in_flight.pop_front();
    SearchCounters::Get().inflight_batches.Set(
        static_cast<int64_t>(in_flight.size()));
  };

  // The driver loop: keep up to `depth` batches in flight while generating
  // the next, then alternate commit-oldest / generate-next; drain when the
  // budget is exhausted. At depth 0 this is generate, commit, generate ...
  //
  // Checkpointing: the batch-commit barrier is the checkpoint seam. A due
  // checkpoint flips `checkpoint_pending`, which parks generation and drains
  // the pipeline (commit-only) until nothing is in flight — drained state is
  // exactly the depth-0 state at the same committed-batch count, so one
  // snapshot format serves every depth and resume is bit-identical at any
  // depth. Commit order, and with it every result, is unchanged; the drain
  // only costs a pipeline refill.
  int64_t last_snapshot_batch = -1;
  for (;;) {
    if (!checkpoint_pending && !out_of_budget() && !stop_requested() &&
        static_cast<int>(in_flight.size()) <= depth) {
      generate_batch();
      continue;
    }
    if (!in_flight.empty()) {
      commit_oldest();
      ++batches_committed;
      if (ckpt_sink_ != nullptr &&
          ckpt_sink_->WantCheckpoint(batches_committed)) {
        checkpoint_pending = true;
      }
      continue;
    }
    if (checkpoint_pending) {
      ckpt_sink_->WriteCheckpoint(MakeCheckpoint(
          batches_committed, elapsed_base_ + Seconds(start, Clock::now()),
          best_so_far, result, population));
      last_snapshot_batch = batches_committed;
      checkpoint_pending = false;
      continue;
    }
    break;
  }

  stats_.elapsed_seconds = elapsed_base_ + Seconds(start, Clock::now());
  result.stats = stats_;
  result.stopped = stop_requested() && !out_of_budget();
  // A stopped run leaves a snapshot of its final barrier (unless the cadence
  // just wrote one there), so cancellation is always resumable; the
  // pipeline is drained by the time we get here.
  if (result.stopped && ckpt_sink_ != nullptr &&
      last_snapshot_batch != batches_committed) {
    ckpt_sink_->WriteCheckpoint(MakeCheckpoint(
        batches_committed, stats_.elapsed_seconds, best_so_far, result,
        population));
  }
  FinishResult(result, population);
  return result;
}

}  // namespace alphaevolve::core
