#ifndef ALPHAEVOLVE_UTIL_STATS_H_
#define ALPHAEVOLVE_UTIL_STATS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace alphaevolve {

/// Arithmetic mean; returns 0 for empty input.
double Mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator); returns 0 for n < 2.
double Variance(std::span<const double> xs);

/// Sample standard deviation.
double StdDev(std::span<const double> xs);

/// Sample Pearson correlation of two equally sized series. Returns 0 when
/// either side has (near-)zero variance or fewer than two points — the
/// convention used throughout the paper's IC and correlation-cutoff math,
/// where a degenerate prediction carries no signal.
double PearsonCorrelation(std::span<const double> xs,
                          std::span<const double> ys);

/// Fractional ranks with average ties, in [1, n] (rank 1 = smallest).
std::vector<double> RanksWithTies(std::span<const double> xs);

/// Indices that would sort `xs` ascending (stable).
std::vector<int> ArgSort(std::span<const double> xs);

/// True iff every element is finite.
bool AllFinite(std::span<const double> xs);

}  // namespace alphaevolve

#endif  // ALPHAEVOLVE_UTIL_STATS_H_
