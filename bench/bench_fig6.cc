// Figure 6 — "Evolutionary trajectories for the best alphas in all rounds":
// best-fitness-so-far (validation IC) against the number of searched
// candidate alphas, one series per mining round's accepted alpha. Expected
// shape (paper): trajectories improve sharply early; later rounds (more
// accumulated cutoffs) fluctuate lower; the final B* round recovers.
//
// Prints the series and writes bench_results/fig6_trajectories.csv.

#include <cstdio>
#include <iostream>

#include "common.h"
#include "core/evaluator_pool.h"
#include "util/csv.h"

using namespace aebench;

int main() {
  const BenchOptions opt = BenchOptions::FromEnv();
  const market::Dataset dataset = MakeBenchDataset(opt);
  PrintBanner("Figure 6: evolutionary trajectories of round winners", opt,
              dataset);

  core::EvaluatorPool pool(dataset, core::EvaluatorConfig{}, opt.num_threads);
  const AeStudyResult ae = RunAeStudy(pool, opt);

  alphaevolve::CsvWriter csv(ResultsDir() + "/fig6_trajectories.csv",
                             {"round", "alpha", "candidates",
                              "best_valid_ic"});
  for (size_t round = 0; round < ae.rounds.size(); ++round) {
    for (const StudyRow& row : ae.rounds[round]) {
      if (!row.accepted) continue;
      std::printf("(%c) %s — final valid IC %.6f, searched %lld\n",
                  static_cast<char>('a' + round), row.name.c_str(),
                  row.trajectory.empty() ? 0.0 : row.trajectory.back().second,
                  static_cast<long long>(row.stats.candidates));
      // Print a compact series: every ~10th sample.
      const size_t stride = std::max<size_t>(1, row.trajectory.size() / 12);
      for (size_t i = 0; i < row.trajectory.size(); ++i) {
        csv.WriteRow({std::to_string(round), row.name,
                      std::to_string(row.trajectory[i].first),
                      std::to_string(row.trajectory[i].second)});
        if (i % stride == 0 || i + 1 == row.trajectory.size()) {
          std::printf("    %8lld -> %.6f\n",
                      static_cast<long long>(row.trajectory[i].first),
                      row.trajectory[i].second);
        }
      }
    }
  }
  std::printf("\nfull series written to %s/fig6_trajectories.csv\n",
              ResultsDir().c_str());
  return 0;
}
