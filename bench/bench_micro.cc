// Micro-benchmarks (google-benchmark). Each one explains a row of the
// end-to-end table (a per-layer metric in BENCHMARK.json, measured by
// `python3 e2ebench/run.py`) or a paper table, and names it. Whole-search
// throughput, thread scaling, telemetry, checkpoint, scenario and service
// costs are measured end to end only: their rows are `cands_per_s`,
// `obs.*`, `ckpt.*`, `scenario.*` and `service.*`, and thread scaling is
// `python3 e2ebench/run.py --scaling`.
//
// Together they give the constants behind Table 6: the structural
// fingerprint costs microseconds while a probe evaluation costs
// milliseconds, which is why pruning searches an order of magnitude more
// alphas per unit time.

#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "core/dispatch.h"
#include "core/evaluator.h"
#include "core/generators.h"
#include "core/mutator.h"
#include "core/pruning.h"
#include "ga/expr.h"
#include "market/dataset.h"
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

// `executor.ns_per_task_date`: one fused-plan run of the expert alpha over
// the whole panel, at three universe sizes; items are tasks per run.
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

// `executor.run_ms_p50`: one run of Table 4's two-layer-network alpha,
// whose Update takes an SGD step on every training date.
void BM_ExecutorNeuralNetAlpha(benchmark::State& state) {
  const auto& ds = BenchDataset(64);
  core::Executor exec(ds, core::ExecutorConfig{});
  const auto prog = core::MakeNeuralNetAlpha(ds.window());
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Run(prog, 1));
  }
}
BENCHMARK(BM_ExecutorNeuralNetAlpha);

// The relation-op share of `executor.run_ms_*` (the §4.1 RelationOps that
// bench_ablation_relation toggles): the expert alpha followed by a
// cross-sectional rank and a per-group relation rank.
void BM_ExecutorRelationOps(benchmark::State& state) {
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

// --- Runtime-dispatched kernel variants ----------------------------------
// The kernel share of `executor.ns_per_task_date`: the same row-tiled
// matmul body compiled per ISA (core/kernels_impl.inc),
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

// `prune.us_per_cand` and Table 6: the paper's evaluation-free structural
// fingerprint, microseconds per candidate.
void BM_PruneAndFingerprint(benchmark::State& state) {
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

// Table 6's `_N` rows: the AutoML-Zero prediction fingerprint, a real
// (truncated) probe evaluation per candidate.
void BM_ProbeFingerprint(benchmark::State& state) {
  const auto& ds = BenchDataset(64);
  core::Evaluator evaluator(ds, core::EvaluatorConfig{});
  const auto prog = core::MakeNeuralNetAlpha(ds.window());
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.ProbeFingerprint(prog, 1));
  }
}
BENCHMARK(BM_ProbeFingerprint);

// `evaluate.ms_p50`: one full evaluation (executor, IC, long-short book,
// Sharpe and turnover) of the network alpha.
void BM_FullEvaluation(benchmark::State& state) {
  const auto& ds = BenchDataset(64);
  core::Evaluator evaluator(ds, core::EvaluatorConfig{});
  const auto prog = core::MakeNeuralNetAlpha(ds.window());
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Evaluate(prog, 1, false));
  }
}
BENCHMARK(BM_FullEvaluation);

// `evolution.generate_ms`: one mutation of a chain grown from the network
// alpha.
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

// Tables 1 and 2's genetic-algorithm baseline (alpha_G): one random GP tree
// over every task of one validation date.
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

// `market.simulate_ms`: one 64-stock, 300-day panel simulation.
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
// JSON so a recorded run states which ISA produced it, and
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
