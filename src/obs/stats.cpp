#include "obs/stats.hpp"

#include <algorithm>

namespace autonet::obs {

double sample_percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 100.0);
  const double pos = q / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= samples.size()) return samples.back();
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[lo + 1] - samples[lo]);
}

}  // namespace autonet::obs
