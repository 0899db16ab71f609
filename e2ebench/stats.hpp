// Percentile discipline for the end-to-end benchmark: a reported tail
// percentile has at least `minBeyond` raw samples above its rank, so a "p90"
// of five samples (which is just the maximum) cannot be reported.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace isop::e2e {

/// Samples beyond a reported percentile, unless a caller lowers it (the
/// smoke mode checks plumbing, not statistics).
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Smallest sample count for which quantile q leaves `minBeyond` samples
/// above it.
inline std::size_t minSamplesFor(double q, std::size_t minBeyond = kMinSamplesBeyond) {
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(minBeyond) / (1.0 - q) - 1e-9));
}

/// Linear-interpolated quantile of `samples` (q in [0, 1]). Throws when the
/// sample is too small for q to have `minBeyond` samples above it.
inline double quantile(std::vector<double> samples, double q,
                       std::size_t minBeyond = kMinSamplesBeyond) {
  const std::size_t n = samples.size();
  if (n == 0 ||
      static_cast<double>(n) * (1.0 - q) + 1e-9 < static_cast<double>(minBeyond)) {
    throw std::runtime_error("percentile p" + std::to_string(static_cast<int>(q * 100)) +
                             " needs " + std::to_string(minSamplesFor(q, minBeyond)) +
                             " samples, have " + std::to_string(n));
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, n - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

/// Plain median (no samples-beyond requirement; throws only when empty).
inline double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5, 0);
}

inline double sum(const std::vector<double>& samples) {
  double s = 0.0;
  for (double v : samples) s += v;
  return s;
}

inline double mean(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : sum(samples) / static_cast<double>(samples.size());
}

}  // namespace isop::e2e
