// Statistics over raw samples: the experiment aggregator summarises
// each per-run scalar metric across a campaign's repetitions with it.
#pragma once

#include <vector>

namespace autonet::obs {

/// Exact percentile over raw samples (linear interpolation between order
/// statistics, numpy's default): the aggregator uses this for per-run
/// scalar metrics where the full sample set is available.
[[nodiscard]] double sample_percentile(std::vector<double> samples, double q);

}  // namespace autonet::obs
