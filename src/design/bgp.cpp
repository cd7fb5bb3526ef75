#include "design/bgp.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/transforms.hpp"

namespace autonet::design {

using anm::OverlayEdge;
using anm::OverlayGraph;
using anm::OverlayNode;

OverlayGraph build_ebgp(anm::AbstractNetworkModel& anm) {
  OverlayGraph g_phy = anm["phy"];
  OverlayGraph g_ebgp = anm.add_overlay("ebgp", g_phy.routers(), true, {"asn"});
  // Eq. 3, bidirected: a session in each direction per inter-AS link.
  // Policy attributes ride along (§7.3: "the routing policy can be stored
  // as a string attribute on the edge"): `local_pref` on an input link
  // makes both endpoints prefer routes received over it.
  g_ebgp.add_edges_from(
      g_phy.edges([](const OverlayEdge& e) {
        return e.src().asn() != e.dst().asn() && e.src().is_router() &&
               e.dst().is_router();
      }),
      {"local_pref", "med"}, /*bidirected=*/true);
  return g_ebgp;
}

OverlayGraph build_ibgp_full_mesh(anm::AbstractNetworkModel& anm) {
  OverlayGraph g_phy = anm["phy"];
  auto rtrs = g_phy.routers();
  OverlayGraph g_ibgp = anm.add_overlay("ibgp", rtrs, true, {"asn"});
  g_ibgp.data()["ibgp_mode"] = "mesh";
  // Eq. 2: (s, t) for every ordered same-AS router pair, s and then t in
  // router order. Sorted by (asn, router), each AS's routers form one run
  // of `by_as`, in router order.
  std::vector<std::pair<std::int64_t, std::size_t>> by_as;
  by_as.reserve(rtrs.size());
  for (std::size_t i = 0; i < rtrs.size(); ++i) by_as.emplace_back(rtrs[i].asn(), i);
  std::sort(by_as.begin(), by_as.end());
  std::vector<std::pair<std::size_t, std::size_t>> run_of(rtrs.size());  // [first, last)
  for (std::size_t first = 0, last = 0; first < by_as.size(); first = last) {
    while (last < by_as.size() && by_as[last].first == by_as[first].first) ++last;
    for (std::size_t k = first; k < last; ++k) run_of[by_as[k].second] = {first, last};
  }
  for (std::size_t s = 0; s < rtrs.size(); ++s) {
    for (std::size_t k = run_of[s].first; k < run_of[s].second; ++k) {
      const std::size_t t = by_as[k].second;
      if (t != s) g_ibgp.add_edge(rtrs[s].name(), rtrs[t].name());
    }
  }
  return g_ibgp;
}

OverlayGraph build_ibgp_route_reflectors(anm::AbstractNetworkModel& anm) {
  OverlayGraph g_phy = anm["phy"];
  auto rtrs = g_phy.routers();
  OverlayGraph g_ibgp =
      anm.add_overlay("ibgp", rtrs, true, {"asn", "rr", "rr_cluster"});
  g_ibgp.data()["ibgp_mode"] = "rr";

  std::map<std::int64_t, std::vector<OverlayNode>> reflectors;
  std::map<std::int64_t, std::vector<OverlayNode>> clients;
  for (const auto& n : g_ibgp.nodes()) {
    if (n.attr("rr").truthy()) reflectors[n.asn()].push_back(n);
    else clients[n.asn()].push_back(n);
  }

  for (const auto& [asn, rrs] : reflectors) {
    // (rr, rr) full mesh within the AS.
    for (const auto& a : rrs) {
      for (const auto& b : rrs) {
        if (a.name() != b.name()) g_ibgp.add_edge(a.name(), b.name());
      }
    }
  }
  for (auto& [asn, members] : clients) {
    auto rit = reflectors.find(asn);
    if (rit == reflectors.end()) {
      // No reflectors in this AS: fall back to a client full mesh so the
      // AS still has complete iBGP reachability.
      for (const auto& a : members) {
        for (const auto& b : members) {
          if (a.name() != b.name()) g_ibgp.add_edge(a.name(), b.name());
        }
      }
      continue;
    }
    for (const auto& c : members) {
      const auto* cluster = c.attr("rr_cluster").as_string();
      for (const auto& rr : rit->second) {
        if (cluster != nullptr && !cluster->empty() && *cluster != rr.name()) {
          continue;  // pinned to a specific reflector
        }
        auto down = g_ibgp.add_edge(rr.name(), c.name());
        down.set("rr_client", true);
        g_ibgp.add_edge(c.name(), rr.name());
      }
    }
  }
  return g_ibgp;
}

std::size_t select_route_reflectors(anm::AbstractNetworkModel& anm,
                                    const RrSelectOptions& opts) {
  OverlayGraph g_phy = anm["phy"];
  std::size_t marked = 0;

  // Per-AS subgraph of the physical topology, then centrality over it.
  auto groups = graph::group_by(g_phy.unwrap(), "asn");
  for (const auto& [asn_value, members] : groups) {
    if (!asn_value.is_set()) continue;
    std::vector<graph::NodeId> as_routers;
    for (graph::NodeId n : members) {
      if (g_phy.node(n).is_router()) as_routers.push_back(n);
    }
    if (as_routers.size() <= opts.min_as_size) continue;

    graph::Graph sub(false, "asn_subgraph");
    for (graph::NodeId n : as_routers) sub.add_node(g_phy.unwrap().node_name(n));
    for (graph::NodeId n : as_routers) {
      for (graph::EdgeId e : g_phy.unwrap().out_edges(n)) {
        graph::NodeId m = g_phy.unwrap().edge_other(e, n);
        graph::NodeId su = sub.find_node(g_phy.unwrap().node_name(n));
        graph::NodeId sv = sub.find_node(g_phy.unwrap().node_name(m));
        if (sv != graph::kInvalidNode && su < sv &&
            sub.find_edge(su, sv) == graph::kInvalidEdge) {
          sub.add_edge(su, sv);
        }
      }
    }

    std::map<graph::NodeId, double> centrality;
    if (opts.metric == "betweenness") centrality = graph::betweenness_centrality(sub);
    else if (opts.metric == "closeness") centrality = graph::closeness_centrality(sub);
    else if (opts.metric == "degree") centrality = graph::degree_centrality(sub);
    else throw std::invalid_argument("unknown centrality metric '" + opts.metric + "'");

    for (graph::NodeId top : graph::top_k_central(sub, centrality, opts.per_as)) {
      g_phy.node(sub.node_name(top))->set("rr", true);
      ++marked;
    }
  }
  return marked;
}

std::size_t session_count(const OverlayGraph& g) {
  // Directed overlays hold one edge per direction; a session is a pair.
  return g.directed() ? g.edge_count() / 2 : g.edge_count();
}

}  // namespace autonet::design
