#include "crosscheck.hpp"

#include <algorithm>
#include <deque>
#include <map>

namespace perfbench {

namespace ag = autonet::graph;
namespace an = autonet::verify::analysis;

PairSample sample_pairs(const ag::Graph& input, Rng& rng, std::size_t sources,
                        std::size_t far) {
  std::vector<ag::NodeId> nodes;
  for (const ag::NodeId n : input.nodes()) {
    const std::string* type = input.node_attr(n, "device_type").as_string();
    if (type != nullptr && *type == "router") nodes.push_back(n);
  }
  std::map<ag::NodeId, std::size_t> index;
  for (std::size_t i = 0; i < nodes.size(); ++i) index[nodes[i]] = i;
  std::vector<std::vector<std::size_t>> adj(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (const ag::NodeId m : input.neighbors(nodes[i])) {
      if (const auto it = index.find(m); it != index.end()) adj[i].push_back(it->second);
    }
  }

  PairSample out;
  std::vector<std::size_t> order(nodes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  sources = std::min(sources, order.size());
  std::vector<bool> is_source(nodes.size(), false);
  for (std::size_t k = 0; k < sources; ++k) {
    is_source[order[k]] = true;
    for (std::size_t d = 0; d < nodes.size(); ++d) {
      if (d == order[k]) continue;
      out.rows.emplace_back(input.node_name(nodes[order[k]]), input.node_name(nodes[d]));
    }
  }

  // Hop distances by breadth-first search from every router; keep the
  // `far` most distant ordered pairs (ties broken by the seeded order).
  struct Far {
    std::size_t hops;
    std::size_t rank;
    std::size_t src;
    std::size_t dst;
  };
  std::vector<std::size_t> rank(nodes.size());
  for (std::size_t i = 0; i < order.size(); ++i) rank[order[i]] = i;
  std::vector<Far> candidates;
  std::vector<std::size_t> dist(nodes.size());
  for (std::size_t s = 0; s < nodes.size(); ++s) {
    std::fill(dist.begin(), dist.end(), SIZE_MAX);
    std::deque<std::size_t> queue{s};
    dist[s] = 0;
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop_front();
      for (const std::size_t v : adj[u]) {
        if (dist[v] == SIZE_MAX) {
          dist[v] = dist[u] + 1;
          queue.push_back(v);
        }
      }
    }
    for (std::size_t d = 0; d < nodes.size(); ++d) {
      if (d == s || dist[d] == SIZE_MAX || is_source[s]) continue;
      candidates.push_back({dist[d], rank[s] * nodes.size() + rank[d], s, d});
      if (candidates.size() > 4 * far + 1024) {
        // Bound memory: keep only the current best `far`.
        std::nth_element(candidates.begin(), candidates.begin() + far, candidates.end(),
                         [](const Far& a, const Far& b) {
                           return a.hops != b.hops ? a.hops > b.hops : a.rank < b.rank;
                         });
        candidates.resize(far);
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(), [](const Far& a, const Far& b) {
    return a.hops != b.hops ? a.hops > b.hops : a.rank < b.rank;
  });
  if (candidates.size() > far) candidates.resize(far);
  for (const Far& f : candidates) {
    out.far.emplace_back(input.node_name(nodes[f.src]), input.node_name(nodes[f.dst]));
  }
  return out;
}

TraceAgreement compare_traces(const autonet::emulation::EmulatedNetwork& network,
                              const an::Model& model, const an::Prediction& prediction,
                              const std::vector<Pair>& pairs) {
  TraceAgreement out;
  auto mismatch = [&out](const Pair& pair, const std::string& why) {
    if (out.mismatches++ == 0) {
      out.first_mismatch = pair.first + " -> " + pair.second + ": " + why;
    }
  };
  for (const Pair& pair : pairs) {
    ++out.pairs;
    const autonet::emulation::TracerouteResult emulated =
        network.traceroute(pair.first, pair.second);
    const an::Path predicted =
        an::trace_to_router(model, prediction, pair.first, pair.second);
    out.hops += emulated.hops.size();
    if (!emulated.reached) ++out.unreachable;
    if (emulated.reached != predicted.reached) {
      mismatch(pair, std::string("emulation ") + (emulated.reached ? "reaches" : "misses") +
                         ", predictor " + (predicted.reached ? "reaches" : "misses"));
      continue;
    }
    if (emulated.hops.size() != predicted.hops.size()) {
      mismatch(pair, "hop count " + std::to_string(emulated.hops.size()) + " vs " +
                         std::to_string(predicted.hops.size()));
      continue;
    }
    for (std::size_t i = 0; i < emulated.hops.size(); ++i) {
      if (emulated.hops[i].address != predicted.hops[i].address ||
          emulated.hops[i].router != predicted.hops[i].router) {
        mismatch(pair, "hop " + std::to_string(i + 1) + " differs");
        break;
      }
    }
  }
  return out;
}

}  // namespace perfbench
