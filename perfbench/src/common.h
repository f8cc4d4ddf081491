// Small helpers shared by the benchmark runner's translation units.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Quantile q in [0, 1] with linear interpolation between order
/// statistics (the convention of numpy's default); 0 for no samples.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(values[hi]) || std::isinf(values[lo])) {
    return frac > 0.0 ? values[hi] : values[lo];
  }
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

inline double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
