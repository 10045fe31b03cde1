// Table 4 — "Ablation study of the parameter-updating function": each alpha
// is re-evaluated with def Update() stripped (the `*_P` variant), i.e. no
// parameter learning — the alpha degenerates into a formulaic alpha, which
// the paper notes is the parameter-free special case of the new class.
//
// Rows: the hand-written two-layer-network alpha (whose Update performs
// SGD, so stripping it must hurt), then the mining study's per-round best
// alphas *that actually learned parameters* (live Update instructions after
// redundancy pruning). Expected shape (paper): IC drops without the
// parameter-updating function; Sharpe may move either way because it only
// depends on the extreme ranks.

#include <iostream>
#include <limits>

#include "common.h"
#include "core/evaluator.h"
#include "core/evaluator_pool.h"
#include "core/pruning.h"
#include "eval/metrics.h"
#include "util/table.h"

using namespace aebench;

namespace {

core::AlphaMetrics EvaluateStripped(core::Evaluator& evaluator,
                                    const core::AlphaProgram& program,
                                    const core::ProgramLimits& limits) {
  core::AlphaProgram stripped = program;
  stripped.update.assign(1, core::Instruction{});  // single no-op
  const core::AlphaProgram pruned =
      core::PruneRedundant(stripped, limits).pruned;
  return evaluator.Evaluate(pruned, core::Fingerprint(pruned));
}

}  // namespace

int main() {
  const BenchOptions opt = BenchOptions::FromEnv();
  const market::Dataset dataset = MakeBenchDataset(opt);
  PrintBanner("Table 4: parameter-updating function ablation", opt, dataset);

  core::Evaluator evaluator(dataset, core::EvaluatorConfig{});
  const core::ProgramLimits limits;
  alphaevolve::TablePrinter table(
      {"Alpha", "Sharpe ratio", "IC", "Sharpe (test)", "IC (test)",
       "Update ops (live)"});

  auto add_pair = [&](const std::string& name,
                      const core::AlphaProgram& program) {
    const core::AlphaProgram pruned =
        core::PruneRedundant(program, limits).pruned;
    const core::AlphaMetrics full =
        evaluator.Evaluate(pruned, core::Fingerprint(pruned));
    const core::AlphaMetrics ablated =
        EvaluateStripped(evaluator, program, limits);
    table.AddRow({name,
                  full.valid ? Num(full.sharpe_valid) : "NA",
                  full.valid ? Num(full.ic_valid) : "NA",
                  full.valid ? Num(full.sharpe_test) : "NA",
                  full.valid ? Num(full.ic_test) : "NA",
                  std::to_string(pruned.update.size())});
    table.AddRow({name + "_P",
                  ablated.valid ? Num(ablated.sharpe_valid) : "NA",
                  ablated.valid ? Num(ablated.ic_valid) : "NA",
                  ablated.valid ? Num(ablated.sharpe_test) : "NA",
                  ablated.valid ? Num(ablated.ic_test) : "NA", "0"});
  };

  // The two-layer network alpha: its Update is SGD, the clearest case.
  add_pair("alpha_NN_init", core::MakeNeuralNetAlpha(dataset.window()));

  // Mining-study alphas that actually use parameters.
  core::EvaluatorPool pool(dataset, core::EvaluatorConfig{}, opt.num_threads);
  const AeStudyResult ae = RunAeStudy(pool, opt);
  int with_params = 0;
  for (const auto& round : ae.rounds) {
    const StudyRow* chosen = nullptr;
    for (const StudyRow& row : round) {
      if (!row.has_alpha) continue;
      const bool has_params =
          !core::PruneRedundant(row.program, limits).pruned.update.empty();
      if (row.accepted && has_params) {
        chosen = &row;  // round winner learned parameters: ideal row
        break;
      }
      if (has_params && (chosen == nullptr ||
                         row.sharpe_valid > chosen->sharpe_valid)) {
        chosen = &row;  // else best parameterized alpha of the round
      }
    }
    if (chosen != nullptr) {
      add_pair(chosen->name, chosen->program);
      ++with_params;
    }
  }
  table.Print(std::cout);
  std::printf(
      "\n%d of %d rounds produced alphas with live parameter updates.\n"
      "(Update ops (live) = def Update() instructions surviving redundancy\n"
      " pruning; `_P` = same alpha with the parameter-updating function\n"
      " removed, the paper's ablation)\n",
      with_params, opt.rounds);
  return 0;
}
