// The oracle shared by nren-run and nren-analyze: a seeded sample of
// router pairs traced through the booted emulation and through the
// offline predictor (verify/analysis), compared hop for hop. The two
// layers compute forwarding independently — rendered-and-reparsed
// configs on one side, NIDB records on the other.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "emulation/network.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"
#include "verify/analysis/model.hpp"

namespace perfbench {

using Pair = std::pair<std::string, std::string>;

struct PairSample {
  /// Every destination from a few seeded random sources: an unbiased
  /// sample of the reachability matrix.
  std::vector<Pair> rows;
  /// The pairs with the most hops between them in the input graph, not
  /// already in `rows`. They are the ones most likely to run out of
  /// ping's 30-hop TTL, so the sample never assumes full connectivity.
  std::vector<Pair> far;
};

[[nodiscard]] PairSample sample_pairs(const autonet::graph::Graph& input, Rng& rng,
                                      std::size_t sources, std::size_t far);

struct TraceAgreement {
  std::size_t pairs = 0;
  /// Pairs neither side reaches (forwarding loop, drop or TTL).
  std::size_t unreachable = 0;
  /// Hops over every traced pair.
  std::size_t hops = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
};

/// Traces every pair through both layers and compares reachability and
/// every hop's address and router.
[[nodiscard]] TraceAgreement compare_traces(
    const autonet::emulation::EmulatedNetwork& network,
    const autonet::verify::analysis::Model& model,
    const autonet::verify::analysis::Prediction& prediction,
    const std::vector<Pair>& pairs);

}  // namespace perfbench
