// Aggregation rules shared by every metric the benchmark prints.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Geometric mean of strictly positive values: the cross-system aggregate,
/// so a 2x change on a fast system weighs as much as one on a slow system.
/// Returns nullopt for an empty input or any value <= 0.
std::optional<double> GeoMean(const std::vector<double>& values);

/// Median (mean of the middle pair for even sizes); nullopt when empty.
std::optional<double> Median(std::vector<double> values);

/// Samples a percentile needs beyond it before it may be reported.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank p-quantile (0 < p < 1) of `sorted`, reported only when at
/// least kMinTailSamples samples lie strictly beyond it; nullopt otherwise.
std::optional<double> ReportablePercentile(const std::vector<double>& sorted,
                                           double p);

/// The p-quantile estimated as the mean of the samples whose nearest-rank
/// positions lie within [p - band, p + band]: a percentile that moves
/// smoothly when the share of a second mode crosses p. Reported only when
/// at least kMinTailSamples samples lie beyond the band; nullopt otherwise.
std::optional<double> BandPercentile(const std::vector<double>& sorted, double p,
                                     double band);

}  // namespace perfbench
