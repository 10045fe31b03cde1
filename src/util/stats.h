#ifndef ALPHAEVOLVE_UTIL_STATS_H_
#define ALPHAEVOLVE_UTIL_STATS_H_

#include <span>

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

/// True iff every element is finite.
bool AllFinite(std::span<const double> xs);

}  // namespace alphaevolve

#endif  // ALPHAEVOLVE_UTIL_STATS_H_
