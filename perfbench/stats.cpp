#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::optional<double> GeoMean(const std::vector<double>& values) {
  if (values.empty()) return std::nullopt;
  double log_sum = 0;
  for (const double v : values) {
    if (!(v > 0) || !std::isfinite(v)) return std::nullopt;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::optional<double> Median(std::vector<double> values) {
  if (values.empty()) return std::nullopt;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

std::optional<double> ReportablePercentile(const std::vector<double>& sorted,
                                           double p) {
  const std::size_t n = sorted.size();
  if (n == 0 || !(p > 0 && p < 1)) return std::nullopt;
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (n - 1 - idx < kMinTailSamples) return std::nullopt;
  return sorted[idx];
}

std::optional<double> BandPercentile(const std::vector<double>& sorted, double p,
                                     double band) {
  const std::size_t n = sorted.size();
  if (n == 0 || !(band >= 0) || !(p - band > 0 && p + band < 1)) return std::nullopt;
  const auto rank = [n](double q) {
    const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return r == 0 ? std::size_t{0} : r - 1;
  };
  const std::size_t lo = rank(p - band);
  const std::size_t hi = rank(p + band);
  if (n - 1 - hi < kMinTailSamples) return std::nullopt;
  double sum = 0;
  for (std::size_t i = lo; i <= hi; ++i) sum += sorted[i];
  return sum / static_cast<double>(hi - lo + 1);
}

}  // namespace perfbench
