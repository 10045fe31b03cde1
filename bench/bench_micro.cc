// Micro-benchmarks (google-benchmark): executor throughput, redundancy
// pruning & fingerprinting overhead, relation-op scaling, mutation and GP
// evaluation throughput. These quantify the constants behind Table 6: the
// structural fingerprint costs microseconds while a probe evaluation costs
// milliseconds — which is why pruning searches an order of magnitude more
// alphas per unit time.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.h"
#include "core/dispatch.h"
#include "core/evaluator.h"
#include "core/evaluator_pool.h"
#include "core/evolution.h"
#include "core/generators.h"
#include "core/mutator.h"
#include "core/pruning.h"
#include "ga/expr.h"
#include "market/dataset.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "scenario/robustness.h"
#include "scenario/scenario_fitness.h"
#include "service/alpha_service.h"
#include "util/json.h"
#include "util/rng.h"

namespace {

using namespace alphaevolve;

const market::Dataset& BenchDataset(int num_stocks) {
  static std::map<int, market::Dataset>* cache =
      new std::map<int, market::Dataset>();
  auto it = cache->find(num_stocks);
  if (it == cache->end()) {
    market::MarketConfig mc = market::MarketConfig::BenchScale();
    mc.num_stocks = num_stocks;
    mc.num_days = 300;
    mc.seed = 11;
    it = cache->emplace(num_stocks,
                        market::Dataset::Simulate(mc, {})).first;
  }
  return it->second;
}

void BM_ExecutorExpertAlpha(benchmark::State& state) {
  const auto& ds = BenchDataset(static_cast<int>(state.range(0)));
  core::Executor exec(ds, core::ExecutorConfig{});
  const auto prog = core::MakeExpertAlpha(ds.window());
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Run(prog, 1));
  }
  state.SetItemsProcessed(state.iterations() * ds.num_tasks());
}
BENCHMARK(BM_ExecutorExpertAlpha)->Arg(32)->Arg(64)->Arg(128);

void BM_ExecutorNeuralNetAlpha(benchmark::State& state) {
  const auto& ds = BenchDataset(64);
  core::Executor exec(ds, core::ExecutorConfig{});
  const auto prog = core::MakeNeuralNetAlpha(ds.window());
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Run(prog, 1));
  }
}
BENCHMARK(BM_ExecutorNeuralNetAlpha);

void BM_ExecutorRelationOps(benchmark::State& state) {
  // An alpha dominated by cross-task relation ops, to measure their cost.
  const auto& ds = BenchDataset(static_cast<int>(state.range(0)));
  core::Executor exec(ds, core::ExecutorConfig{});
  core::AlphaProgram prog = core::MakeExpertAlpha(ds.window());
  core::Instruction rank;
  rank.op = core::Op::kRank;
  rank.out = core::kPredictionScalar;
  rank.in1 = core::kPredictionScalar;
  prog.predict.push_back(rank);
  core::Instruction rrank;
  rrank.op = core::Op::kRelationRank;
  rrank.out = core::kPredictionScalar;
  rrank.in1 = core::kPredictionScalar;
  rrank.idx0 = 1;
  prog.predict.push_back(rrank);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Run(prog, 1));
  }
}
BENCHMARK(BM_ExecutorRelationOps)->Arg(32)->Arg(128);

// --- Runtime-dispatched kernel variants (BENCH_6.json) --------------------
// The same row-tiled matmul body compiled per ISA (core/kernels_impl.inc),
// fetched through the dispatch table: scalar (baseline flags) vs whatever
// SIMD variants this host can run. Accumulation order is identical across
// variants (fused_parity_test), so `speedup_vs_scalar` is pure instruction
// selection. Registered in main() for exactly the runnable variants —
// scalar first, so it seeds the baseline for each n.

std::map<int, double>& ScalarMatMulPerSec() {
  static auto* baselines = new std::map<int, double>();
  return *baselines;
}

void DispatchedMatMulBody(benchmark::State& state,
                          const core::KernelTable* table, int n) {
  Rng rng(11);
  std::vector<double> a(static_cast<size_t>(n) * n);
  std::vector<double> b(static_cast<size_t>(n) * n);
  std::vector<double> out(static_cast<size_t>(n) * n);
  for (double& x : a) x = rng.Gaussian();
  for (double& x : b) x = rng.Gaussian();
  int64_t iters = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    table->matmul(a.data(), b.data(), out.data(), n);
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    ++iters;
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  const double flops_per_iter = 2.0 * n * n * n;
  state.counters["gflops_proxy"] = benchmark::Counter(
      flops_per_iter * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  if (seconds > 0.0 && iters > 0) {
    const double per_sec = static_cast<double>(iters) / seconds;
    if (table->variant == core::KernelVariant::kScalar) {
      ScalarMatMulPerSec()[n] = per_sec;
    } else if (ScalarMatMulPerSec().count(n) > 0) {
      state.counters["speedup_vs_scalar"] = per_sec / ScalarMatMulPerSec()[n];
    }
  }
}

void RegisterDispatchedMatMul() {
  for (const core::KernelVariant v : core::RunnableKernelVariants()) {
    const core::KernelTable* table = core::GetKernelTable(v);
    for (const int n : {13, 32, 64}) {
      const std::string name = std::string("BM_DispatchedMatMul/") +
                               core::KernelVariantName(v) + "/" +
                               std::to_string(n);
      benchmark::RegisterBenchmark(
          name.c_str(), [table, n](benchmark::State& st) {
            DispatchedMatMulBody(st, table, n);
          });
    }
  }
}

void BM_PruneAndFingerprint(benchmark::State& state) {
  // The paper's evaluation-free fingerprint: microseconds per candidate.
  core::MutatorConfig mcfg;
  core::Mutator mutator(mcfg);
  Rng rng(3);
  core::AlphaProgram prog = core::MakeNeuralNetAlpha(13);
  for (int i = 0; i < 30; ++i) prog = mutator.Mutate(prog, rng);
  for (auto _ : state) {
    auto pruned = core::PruneRedundant(prog, mcfg.limits);
    benchmark::DoNotOptimize(core::Fingerprint(pruned.pruned));
  }
}
BENCHMARK(BM_PruneAndFingerprint);

void BM_ProbeFingerprint(benchmark::State& state) {
  // The AutoML-Zero functional fingerprint: a real (truncated) evaluation.
  const auto& ds = BenchDataset(64);
  core::Evaluator evaluator(ds, core::EvaluatorConfig{});
  const auto prog = core::MakeNeuralNetAlpha(ds.window());
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.ProbeFingerprint(prog, 1));
  }
}
BENCHMARK(BM_ProbeFingerprint);

void BM_FullEvaluation(benchmark::State& state) {
  const auto& ds = BenchDataset(64);
  core::Evaluator evaluator(ds, core::EvaluatorConfig{});
  const auto prog = core::MakeNeuralNetAlpha(ds.window());
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Evaluate(prog, 1, false));
  }
}
BENCHMARK(BM_FullEvaluation);

void BM_Mutation(benchmark::State& state) {
  core::Mutator mutator{core::MutatorConfig{}};
  Rng rng(5);
  core::AlphaProgram prog = core::MakeNeuralNetAlpha(13);
  for (auto _ : state) {
    prog = mutator.Mutate(prog, rng);
    benchmark::DoNotOptimize(prog);
  }
}
BENCHMARK(BM_Mutation);

void BM_GpTreeEvaluation(benchmark::State& state) {
  const auto& ds = BenchDataset(64);
  Rng rng(7);
  const auto tree = ga::RandomTree(rng, ds.num_features(), 6, true);
  const int date = ds.dates(market::Split::kValid)[0];
  for (auto _ : state) {
    double sum = 0;
    for (int k = 0; k < ds.num_tasks(); ++k) {
      sum += tree->Eval(ds.FeatureRow(k, date));
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * ds.num_tasks());
}
BENCHMARK(BM_GpTreeEvaluation);

// --- Serial vs. pooled evolution throughput -------------------------------
// Candidates/sec through the full search pipeline (mutate → prune →
// fingerprint → cache → evaluate → insert/age) for the legacy serial engine
// and the EvaluatorPool-backed engine at 1/2/4/8 threads. The batch width is
// fixed at 16 across thread counts so every run scores the same candidate
// stream and only the parallelism varies; `speedup_vs_serial` is the
// headline number (≥ 2.5x expected at 4 threads on a 4+ core machine).

core::EvolutionConfig MicroEvolutionConfig() {
  core::EvolutionConfig cfg;
  cfg.max_candidates = 400;
  cfg.seed = 11;
  cfg.batch_size = 16;
  return cfg;
}

double g_serial_candidates_per_sec = 0.0;

void BM_EvolutionSerial(benchmark::State& state) {
  const auto& ds = BenchDataset(64);
  core::Evaluator evaluator(ds, core::EvaluatorConfig{});
  core::EvolutionConfig cfg = MicroEvolutionConfig();
  const auto prog = core::MakeExpertAlpha(ds.window());
  int64_t candidates = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    core::Evolution evo(evaluator, cfg);
    const core::EvolutionResult r = evo.Run(prog);
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    candidates += r.stats.candidates;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(candidates);
  if (seconds > 0.0) {
    g_serial_candidates_per_sec = static_cast<double>(candidates) / seconds;
    state.counters["cands_per_sec"] = g_serial_candidates_per_sec;
  }
}
BENCHMARK(BM_EvolutionSerial)->Unit(benchmark::kMillisecond);

void BM_EvolutionPooled(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto& ds = BenchDataset(64);
  core::EvaluatorPool pool(ds, core::EvaluatorConfig{}, threads);
  const core::EvolutionConfig cfg = MicroEvolutionConfig();
  const auto prog = core::MakeExpertAlpha(ds.window());
  int64_t candidates = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    core::Evolution evo(pool, cfg);
    const core::EvolutionResult r = evo.Run(prog);
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    candidates += r.stats.candidates;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(candidates);
  if (seconds > 0.0) {
    const double cps = static_cast<double>(candidates) / seconds;
    state.counters["cands_per_sec"] = cps;
    if (g_serial_candidates_per_sec > 0.0) {
      state.counters["speedup_vs_serial"] =
          cps / g_serial_candidates_per_sec;
    }
  }
}
BENCHMARK(BM_EvolutionPooled)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Evolution driver pipeline depth (BENCH_5.json) -----------------------
// The same candidate stream (fixed seed + batch width) through the batched
// driver at pipeline depths 0 (lockstep: the driving thread blocks while
// each batch evaluates), 1 (double-buffered: batch N+1 is mutated / pruned /
// fingerprinted while batch N evaluates), and 2. Results are bit-identical
// at every depth (pipelined_evolution_test), so `speedup_vs_sync` — cands/
// sec over the depth-0 run at the same thread count — is pure overlap gain:
// the workers never drain between batches and the generator never idles.
// Thread count comes from AE_BENCH_THREADS (default 4); `cpu_ms_per_cand`
// is the number to read on a 1-core box, where wall overlap cannot show.

std::map<int, double>& SyncDriverCandsPerSec() {
  static auto* baselines = new std::map<int, double>();
  return *baselines;
}

void BM_EvolutionPipelined(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  int threads = 4;
  if (const char* env = std::getenv("AE_BENCH_THREADS")) {
    threads = std::max(1, std::atoi(env));
  }
  const auto& ds = BenchDataset(64);
  core::EvaluatorPool pool(ds, core::EvaluatorConfig{}, threads);
  core::EvolutionConfig cfg = MicroEvolutionConfig();
  cfg.pipeline_depth = depth;
  const auto prog = core::MakeExpertAlpha(ds.window());
  int64_t candidates = 0;
  double seconds = 0.0;
  const std::clock_t cpu0 = std::clock();
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    core::Evolution evo(pool, cfg);
    const core::EvolutionResult r = evo.Run(prog);
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    candidates += r.stats.candidates;
    benchmark::DoNotOptimize(r);
  }
  const double cpu_seconds =
      static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC;
  state.SetItemsProcessed(candidates);
  if (seconds > 0.0 && candidates > 0) {
    const double cps = static_cast<double>(candidates) / seconds;
    state.counters["cands_per_sec"] = cps;
    state.counters["cpu_ms_per_cand"] =
        1e3 * cpu_seconds / static_cast<double>(candidates);
    if (depth == 0) {
      SyncDriverCandsPerSec()[threads] = cps;
    } else if (SyncDriverCandsPerSec().count(threads) > 0) {
      state.counters["speedup_vs_sync"] =
          cps / SyncDriverCandsPerSec()[threads];
    }
  }
}
BENCHMARK(BM_EvolutionPipelined)
    ->Arg(0)  // lockstep baseline registers first
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Telemetry overhead on the mining hot path (BENCH_8.json) -------------
// The same pipelined mining run (depth 1, fixed seed + batch width) with the
// obs layer in its three states: 0 = disabled (every instrumented site is a
// relaxed load + branch), 1 = counters/histograms on, 2 = full span tracing
// on top. Results are bit-identical across modes (telemetry_parity_test), so
// `overhead_pct` — throughput lost vs the disabled run at the same thread
// count, registered first — is the whole price of observation. Acceptance:
// full tracing stays under 5%. Thread count from AE_BENCH_THREADS (def. 4).

std::map<int, double>& TelemetryOffCandsPerSec() {
  static auto* baselines = new std::map<int, double>();
  return *baselines;
}

void BM_TelemetryOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  int threads = 4;
  if (const char* env = std::getenv("AE_BENCH_THREADS")) {
    threads = std::max(1, std::atoi(env));
  }
  const auto& ds = BenchDataset(64);
  core::EvaluatorPool pool(ds, core::EvaluatorConfig{}, threads);
  const core::EvolutionConfig cfg = MicroEvolutionConfig();
  obs::TelemetryConfig telemetry;
  telemetry.enabled = mode >= 1;
  telemetry.tracing = mode >= 2;
  obs::Configure(telemetry);
  const auto prog = core::MakeExpertAlpha(ds.window());
  int64_t candidates = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    // Keep snapshot/export cost out of the loop but the recording cost in;
    // clearing also stops the trace rings from carrying events across runs.
    obs::MetricsRegistry::Default().Reset();
    obs::TraceRecorder::Default().Clear();
    const auto t0 = std::chrono::steady_clock::now();
    core::Evolution evo(pool, cfg);
    const core::EvolutionResult r = evo.Run(prog);
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    candidates += r.stats.candidates;
    benchmark::DoNotOptimize(r);
  }
  obs::Configure(obs::TelemetryConfig{});  // leave the process telemetry-off
  obs::MetricsRegistry::Default().Reset();
  obs::TraceRecorder::Default().Clear();
  state.SetItemsProcessed(candidates);
  if (seconds > 0.0 && candidates > 0) {
    const double cps = static_cast<double>(candidates) / seconds;
    state.counters["cands_per_sec"] = cps;
    if (mode == 0) {
      TelemetryOffCandsPerSec()[threads] = cps;
    } else if (TelemetryOffCandsPerSec().count(threads) > 0) {
      state.counters["overhead_pct"] =
          100.0 * (1.0 - cps / TelemetryOffCandsPerSec()[threads]);
    }
  }
}
BENCHMARK(BM_TelemetryOverhead)
    ->Arg(0)  // disabled baseline registers first
    ->Arg(1)  // counters + histograms
    ->Arg(2)  // + span tracing
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Checkpointing overhead (BENCH_9.json) --------------------------------
// The crash-tolerance tax: one full mining search with snapshots off
// (mode 0, baseline), at the default every-8-batches cadence (mode 1), and
// at the pathological every-batch cadence (mode 2). Snapshots serialize the
// whole committed state (population, RNG, counters, fingerprint cache) and
// publish through temp file + fsync + atomic rename, so `write_ms` is
// dominated by the fsyncs; `overhead_pct` is the end-to-end mining slowdown
// versus mode 0 — the acceptance bar is < 3% at the default cadence.

// Baseline cands/sec with checkpointing off, keyed by thread count; the
// mean over every mode-0 repetition so far, so a single noisy baseline rep
// can't swing the overhead_pct of the checkpointed modes.
std::map<int, std::pair<double, int>>& CheckpointOffCandsPerSec() {
  static auto* baseline = new std::map<int, std::pair<double, int>>();
  return *baseline;
}

void BM_CheckpointOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  int threads = 4;
  if (const char* env = std::getenv("AE_BENCH_THREADS")) {
    threads = std::max(1, std::atoi(env));
  }
  const auto& ds = BenchDataset(64);
  core::EvaluatorPool pool(ds, core::EvaluatorConfig{}, threads);
  core::EvolutionConfig cfg = MicroEvolutionConfig();
  // Depth 0 (lockstep): every barrier is already drained, so no snapshot
  // waits on a drain (deeper pipelines drain to exactly these states before
  // capturing). That isolates the checkpoint machinery's cost — capture +
  // serialize + background publish — from the pipeline-refill bubble a
  // depth>0 drain adds per snapshot. That policy cost is bounded
  // by BM_EvolutionPipelined's depth gain and shrinks with real batch
  // durations (this micro-workload commits a batch every ~10ms; paper-scale
  // runs take seconds per batch, making the bubble noise).
  cfg.pipeline_depth = 0;
  // A longer run than the other micro-benches: the trailing Flush() below is
  // a fixed per-run cost (one fsync), and a ~100ms run would let that drain
  // dominate the overhead number instead of the steady-state publish cost.
  cfg.max_candidates = 1600;
  const auto prog = core::MakeExpertAlpha(ds.window());
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ae_bench_ckpt").string();

  int64_t candidates = 0;
  int64_t generations = 0;
  int64_t snapshot_bytes = 0;
  double write_seconds = 0.0;
  double seconds = 0.0;
  for (auto _ : state) {
    // A fresh writer per run keeps its counters per-iteration; sweeping the
    // stream afterwards keeps generation numbering (and disk use) bounded.
    ckpt::WriterOptions options;
    options.every_batches = mode == 1 ? 8 : 1;
    options.keep = 2;
    ckpt::CheckpointWriter writer(dir, "bench", options);
    const auto t0 = std::chrono::steady_clock::now();
    core::Evolution evo(pool, cfg);
    if (mode >= 1) evo.UseCheckpointSink(&writer);
    const core::EvolutionResult r = evo.Run(prog);
    // Charge the trailing drain to the run: durability of the last snapshot
    // is part of the cost being measured.
    writer.Flush();
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    candidates += r.stats.candidates;
    generations += writer.generations_written();
    snapshot_bytes = writer.last_snapshot_bytes();
    write_seconds += writer.total_write_seconds();
    ckpt::RemoveCheckpoints(dir, "bench");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(candidates);
  if (seconds > 0.0 && candidates > 0) {
    const double cps = static_cast<double>(candidates) / seconds;
    state.counters["cands_per_sec"] = cps;
    if (mode == 0) {
      auto& [sum, n] = CheckpointOffCandsPerSec()[threads];
      sum += cps;
      ++n;
    } else if (CheckpointOffCandsPerSec().count(threads) > 0) {
      const auto& [sum, n] = CheckpointOffCandsPerSec()[threads];
      state.counters["overhead_pct"] = 100.0 * (1.0 - cps * n / sum);
    }
  }
  if (mode >= 1) {
    state.counters["snapshot_bytes"] = static_cast<double>(snapshot_bytes);
    if (generations > 0) {
      state.counters["write_ms"] =
          1e3 * write_seconds / static_cast<double>(generations);
    }
  }
}
BENCHMARK(BM_CheckpointOverhead)
    ->Arg(0)  // no checkpointing: the baseline registers first
    ->Arg(1)  // every 8 batches (the default cadence)
    ->Arg(2)  // every batch (worst case)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Scenario-suite robustness throughput ---------------------------------
// Fans a 2-alpha set across the standard regime suite (BENCH_3.json): each
// (alpha, scenario) cell is a full evaluation on that scenario's overlay
// view, work-stolen by `threads` workers. Construction (one base simulation,
// per-scenario pools) happens outside the timing loop; `scenarios_per_sec`
// counts scored cells, `speedup_vs_serial` compares against the 1-thread
// run (registered first). Reports are bit-identical across thread counts
// (see scenario_test), so this measures pure fan-out gain over a serial
// scenario sweep.

double g_robustness_serial_cells_per_sec = 0.0;

void BM_RobustnessSuite(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = 64;
  mc.num_days = 300;
  mc.seed = 11;
  scenario::ScenarioSuite suite = scenario::ScenarioSuite::Standard(mc, 77);
  scenario::RobustnessConfig rc;
  rc.evaluator.costs.per_side_bps = 10.0;
  rc.num_threads = threads;
  scenario::RobustnessEvaluator evaluator(std::move(suite), rc);

  std::vector<core::AcceptedAlpha> set(2);
  set[0].name = "expert";
  set[0].program = core::MakeExpertAlpha(market::kNumFeatures);
  set[1].name = "nn";
  set[1].program = core::MakeNeuralNetAlpha(market::kNumFeatures);
  const int64_t cells_per_run =
      static_cast<int64_t>(set.size()) * evaluator.suite().num_scenarios();

  int64_t cells = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(evaluator.EvaluateSet(set));
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    cells += cells_per_run;
  }
  state.SetItemsProcessed(cells);
  if (seconds > 0.0) {
    const double cps = static_cast<double>(cells) / seconds;
    state.counters["scenarios_per_sec"] = cps;
    if (threads == 1) {
      g_robustness_serial_cells_per_sec = cps;
    } else if (g_robustness_serial_cells_per_sec > 0.0) {
      state.counters["speedup_vs_serial"] =
          cps / g_robustness_serial_cells_per_sec;
    }
  }
}
BENCHMARK(BM_RobustnessSuite)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Stress-in-the-loop mining throughput (BENCH_7.json) ------------------
// Evolution with ScenarioFitness over the full 7-regime standard suite,
// served as lazy copy-on-write overlay views of one shared panel. The arg is
// the screen: 0 = every valid candidate pays the full regime fan-out
// (screen_min_ic = -1 never fires), 1 = the default cheap-first baseline
// screen (ic_valid < 0) rejects before fanning out.
// `panel_resident_bytes` and `mem_ratio_vs_materialized` (against
// `Materialized()` copies of the same views) give the headline memory win;
// `speedup_vs_no_screen` (screen-off run registered first) gives the
// screening win; `scenario_evals_per_cand` shows where it comes from (fewer
// regime evaluations per candidate). Thread count comes from
// AE_BENCH_THREADS (default 4).

double g_screen_off_cands_per_sec = 0.0;

void BM_ScenarioFitness(benchmark::State& state) {
  const bool screen = state.range(0) != 0;
  int threads = 4;
  if (const char* env = std::getenv("AE_BENCH_THREADS")) {
    threads = std::max(1, std::atoi(env));
  }
  core::ScenarioFitnessOptions options;
  if (!screen) options.screen_min_ic = -1.0;
  // Construction — one base simulation — happens outside the timing loop.
  market::MarketConfig mc = market::MarketConfig::BenchScale();
  mc.num_stocks = 64;
  mc.num_days = 300;
  mc.seed = 11;
  scenario::ScenarioFitness scorer(scenario::ScenarioSuite::Standard(mc, 77),
                                   market::DatasetConfig{},
                                   core::EvaluatorConfig{}, options);
  core::EvaluatorPool pool(scorer.baseline_panel(), core::EvaluatorConfig{},
                           threads);
  scorer.set_fanout_pool(pool.thread_pool());
  core::EvolutionConfig cfg = MicroEvolutionConfig();
  cfg.max_candidates = 200;  // each survivor costs up to 7 evaluations
  const auto prog = core::MakeExpertAlpha(market::kNumFeatures);

  int64_t candidates = 0, evaluated = 0, scenario_evals = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    core::Evolution evo(pool, cfg);
    evo.UseCandidateScorer(&scorer);
    const core::EvolutionResult r = evo.Run(prog);
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    candidates += r.stats.candidates;
    evaluated += r.stats.evaluated;
    scenario_evals += r.stats.scenario_evals;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(candidates);
  const double resident =
      static_cast<double>(scorer.panels().ResidentBytes());
  state.counters["panel_resident_bytes"] = resident;
  // Every view folded into standalone storage: the S-panel footprint the
  // overlay replaces.
  double materialized = 0.0;
  for (int i = 0; i < scorer.num_regimes(); ++i) {
    materialized += static_cast<double>(
        scorer.panels().panel(i).Materialized().StorageBytes());
  }
  state.counters["mem_ratio_vs_materialized"] = materialized / resident;
  if (evaluated > 0) {
    state.counters["scenario_evals_per_cand"] =
        static_cast<double>(scenario_evals) / static_cast<double>(evaluated);
  }
  if (seconds > 0.0 && candidates > 0) {
    const double cps = static_cast<double>(candidates) / seconds;
    state.counters["cands_per_sec"] = cps;
    if (!screen) {
      g_screen_off_cands_per_sec = cps;
    } else if (g_screen_off_cands_per_sec > 0.0) {
      state.counters["speedup_vs_no_screen"] =
          cps / g_screen_off_cands_per_sec;
    }
  }
}
BENCHMARK(BM_ScenarioFitness)
    ->Arg(0)  // screen off: the baseline registers first
    ->Arg(1)  // cheap-first screen
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Resident-service op throughput (BENCH_10.json) -----------------------
// The alpha service's request path end to end — parse -> admission -> bounded
// queue -> worker dispatch -> JSON response — against a live service with one
// mined alpha resident. Modes: 0 = job_status (pure supervisor read), 1 =
// signals (cached prediction lookup), 2 = submit + cancel round trip (intake,
// spec validation, supervisor enqueue, token flip). `req_per_sec` is the
// steady-state rate through the queue; `p50_us`/`p99_us` come from the
// service.op_micros histogram the op workers feed, so they measure the same
// queue-to-response latency a daemon client would see.

service::AlphaService& BenchService() {
  static service::AlphaService* svc = [] {
    service::ServiceOptions options;
    options.num_stocks = 24;
    options.num_days = 220;
    options.data_seed = 13;
    options.eval_threads = 2;
    options.op_workers = 2;
    options.default_job.max_candidates = 32;
    options.default_job.batch_size = 8;
    auto* s = new service::AlphaService(options);
    // Mine one tiny alpha so status/signals lookups have a DONE job to hit.
    s->Call(R"({"op":"submit_search","id":"seed","params":{"seed":7}})");
    while (s->Call(R"({"op":"job_status","id":"w","params":{"job":"job-1"}})")
               .find("\"state\":\"done\"") == std::string::npos) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    // First signals call pays the full prediction-matrix execution; warm it
    // here so the benched path is the cached lookup a resident daemon serves.
    s->Call(
        R"({"op":"signals","id":"warm","params":{"job":"job-1","date":0}})");
    return s;
  }();
  return *svc;
}

void BM_ServiceOps(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  service::AlphaService& service = BenchService();
  obs::TelemetryConfig telemetry;
  telemetry.enabled = true;
  obs::Configure(telemetry);
  obs::MetricsRegistry::Default().Reset();

  int64_t ops = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    if (mode == 0) {
      benchmark::DoNotOptimize(service.Call(
          R"({"op":"job_status","id":"b","params":{"job":"job-1"}})"));
      ++ops;
    } else if (mode == 1) {
      benchmark::DoNotOptimize(service.Call(
          R"({"op":"signals","id":"b","params":{"job":"job-1","date":3}})"));
      ++ops;
    } else {
      // Submit a real spec, then cancel the pending job so the supervisor's
      // ready queue stays bounded however many iterations the runner picks.
      const std::string submitted = service.Call(
          R"({"op":"submit_search","id":"b","params":{"seed":3}})");
      const std::string job = alphaevolve::JsonValue::Parse(submitted)
                                  .At("result").At("job").AsString();
      benchmark::DoNotOptimize(service.Call(
          R"({"op":"cancel_job","id":"b2","params":{"job":")" + job +
          R"("}})"));
      ops += 2;
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  state.SetItemsProcessed(ops);
  if (seconds > 0.0 && ops > 0) {
    state.counters["req_per_sec"] = static_cast<double>(ops) / seconds;
  }
  const obs::Histogram& op_micros =
      obs::MetricsRegistry::Default().GetHistogram("service.op_micros");
  state.counters["p50_us"] = op_micros.Quantile(0.5);
  state.counters["p99_us"] = op_micros.Quantile(0.99);
  obs::Configure(obs::TelemetryConfig{});
  obs::MetricsRegistry::Default().Reset();
}
BENCHMARK(BM_ServiceOps)
    ->Arg(0)  // job_status
    ->Arg(1)  // signals (cached)
    ->Arg(2)  // submit + cancel
    ->UseRealTime();

void BM_MarketSimulation(benchmark::State& state) {
  for (auto _ : state) {
    market::MarketConfig mc = market::MarketConfig::BenchScale();
    mc.num_stocks = static_cast<int>(state.range(0));
    mc.num_days = 300;
    mc.seed = 1;
    benchmark::DoNotOptimize(market::Dataset::Simulate(mc, {}));
  }
}
BENCHMARK(BM_MarketSimulation)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: stamps the kernel-variant context (detected by CPUID and
// used by every executor, compiled into this binary) into the benchmark
// JSON so a committed BENCH record states which ISA produced it, and
// registers the per-variant matmul benchmarks for exactly the variants this
// host can run.
int main(int argc, char** argv) {
  namespace core = alphaevolve::core;
  benchmark::AddCustomContext(
      "ae_kernel_variant_detected",
      core::KernelVariantName(core::DetectKernelVariant()));
  std::string compiled;
  for (const core::KernelVariant v : core::CompiledKernelVariants()) {
    if (!compiled.empty()) compiled += ",";
    compiled += core::KernelVariantName(v);
  }
  benchmark::AddCustomContext("ae_kernel_variants_compiled", compiled);
  RegisterDispatchedMatMul();

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
