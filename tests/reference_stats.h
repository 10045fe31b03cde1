#ifndef ALPHAEVOLVE_TESTS_REFERENCE_STATS_H_
#define ALPHAEVOLVE_TESTS_REFERENCE_STATS_H_

// Whole-vector ranking, for tests only: the plain sorts the library's
// selections and in-group ranks must reproduce. ArgSort is the oracle of
// eval::RunBacktest's long-short book (eval_test) and RanksWithTies the
// oracle of the executor's rank op (executor_test).

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

namespace alphaevolve::testutil {

/// Indices that would sort `xs` ascending (stable: ties keep index order).
inline std::vector<int> ArgSort(std::span<const double> xs) {
  std::vector<int> idx(xs.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](int a, int b) { return xs[a] < xs[b]; });
  return idx;
}

/// Fractional ranks with average ties, in [1, n] (rank 1 = smallest).
inline std::vector<double> RanksWithTies(std::span<const double> xs) {
  const size_t n = xs.size();
  std::vector<double> ranks(n, 0.0);
  if (n == 0) return ranks;
  const std::vector<int> order = ArgSort(xs);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    // Average rank for the tie group [i, j]; ranks are 1-based.
    const double avg = 0.5 * (static_cast<double>(i + 1) +
                              static_cast<double>(j + 1));
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

}  // namespace alphaevolve::testutil

#endif  // ALPHAEVOLVE_TESTS_REFERENCE_STATS_H_
