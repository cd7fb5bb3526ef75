// Differential testing between the static analyzer and the emulation:
// boots the emulated network from the same NIDB (via its rendered
// configs, exercising the full render -> parse path) and asserts the
// predicted traceroutes match the emulated ones hop for hop. A
// divergence is a bug in one of the two layers — this is the
// correctness oracle for both.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nidb/nidb.hpp"
#include "render/config_tree.hpp"
#include "verify/analysis/model.hpp"

namespace autonet::verify::analysis {

struct Divergence {
  std::string src;
  std::string dst;
  std::string detail;
};

struct CrossCheckResult {
  std::size_t pairs = 0;  // ordered router pairs compared
  std::vector<Divergence> divergences;
  [[nodiscard]] bool clean() const { return divergences.empty(); }
};

/// Compares predicted vs. emulated traceroutes for every ordered router
/// pair: the two layers' forwarding tables column by column, tracing the
/// pairs of a column only where the columns differ. `configs` must be
/// the rendered tree for `nidb` (the emulation boots from it; the
/// prediction never looks at it).
[[nodiscard]] CrossCheckResult cross_check(const nidb::Nidb& nidb,
                                           const render::ConfigTree& configs,
                                           std::size_t max_bgp_rounds = 128);

}  // namespace autonet::verify::analysis
