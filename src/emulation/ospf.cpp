// OSPF computation over the emulated network.
//
// Subnet mode (rendered-config networks): full multi-area semantics —
// adjacencies form between routers whose interfaces share a subnet and
// whose OSPF processes cover it *in the same area*; SPF runs per area;
// inter-area routes go through area-0 ABRs (distance = intra-area to the
// ABR + backbone + remote area); intra-area routes are preferred over
// inter-area ones regardless of cost, as OSPF mandates. Inter-AS links,
// which the design rules exclude from OSPF, never form adjacencies.
//
// Explicit-links mode (C-BGP): one weighted SPF per IGP domain.
#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <set>

#include "emulation/network.hpp"

namespace autonet::emulation {

using addressing::Ipv4Addr;
using addressing::Ipv4Prefix;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Adjacency {
  std::size_t to;
  double cost;
  std::string out_interface;
  Ipv4Addr next_hop;  // peer's interface address on the shared subnet
};

/// Dijkstra over one adjacency map; returns distances and the first
/// adjacency taken from `src` towards each destination.
struct SpfResult {
  std::map<std::size_t, double> dist;
  std::map<std::size_t, const Adjacency*> first_hop;
};

SpfResult spf(std::size_t src,
              const std::map<std::size_t, std::vector<Adjacency>>& adj) {
  SpfResult out;
  out.dist[src] = 0;
  using Item = std::pair<double, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    auto du = out.dist.find(u);
    if (du != out.dist.end() && d > du->second) continue;
    auto it = adj.find(u);
    if (it == adj.end()) continue;
    for (const auto& a : it->second) {
      double nd = d + a.cost;
      auto dv = out.dist.find(a.to);
      if (dv == out.dist.end() || nd < dv->second) {
        out.dist[a.to] = nd;
        out.first_hop[a.to] = u == src ? &a : out.first_hop[u];
        heap.emplace(nd, a.to);
      }
    }
  }
  return out;
}

}  // namespace

void EmulatedNetwork::compute_ospf() {
  const std::size_t n = routers_.size();
  igp_dist_.assign(n, {});
  direct_neighbors_.assign(n, {});

  // ==== Explicit-links (C-BGP) mode =========================================
  if (!explicit_links_.empty()) {
    std::map<std::size_t, std::vector<Adjacency>> adj;
    for (const auto& link : explicit_links_) {
      auto ra = by_address_.find(link.a.value());
      auto rb = by_address_.find(link.b.value());
      if (ra == by_address_.end() || rb == by_address_.end()) continue;
      if (router_failed(ra->second) || router_failed(rb->second)) continue;
      stats_.lsa_floods += 2;  // each end originates a router-LSA update
      direct_neighbors_[ra->second].insert(rb->second);
      direct_neighbors_[rb->second].insert(ra->second);
      const std::int64_t da = routers_[ra->second].config().igp_domain;
      const std::int64_t db = routers_[rb->second].config().igp_domain;
      if (da >= 0 && db >= 0 && da != db) continue;
      adj[ra->second].push_back(
          {rb->second, static_cast<double>(link.weight), "", link.b});
      adj[rb->second].push_back(
          {ra->second, static_cast<double>(link.weight), "", link.a});
    }
    for (std::size_t r = 0; r < n; ++r) {
      auto& neighbors = routers_[r].mutable_ospf_neighbors();
      neighbors.clear();
      if (router_failed(r)) {
        routers_[r].mutable_fib().clear();
        igp_dist_[r].clear();
        continue;
      }
      for (std::size_t m : direct_neighbors_[r]) {
        const std::int64_t da = routers_[r].config().igp_domain;
        const std::int64_t db = routers_[m].config().igp_domain;
        if (da >= 0 && db >= 0 && da != db) continue;
        neighbors.push_back(routers_[m].name());
      }
      std::sort(neighbors.begin(), neighbors.end());

      ++stats_.spf_runs;
      ++stats_.spf_per_router[routers_[r].name()];
      auto result = spf(r, adj);
      auto& fib = routers_[r].mutable_fib();
      fib.clear();
      const RouterConfig& cfg = routers_[r].config();
      if (cfg.loopback) {
        fib.push_back(FibEntry{cfg.loopback->prefix, RouteSource::kConnected, "",
                               std::nullopt, 0});
      }
      igp_dist_[r].clear();
      for (const auto& [d, dist] : result.dist) {
        if (d == r) continue;
        igp_dist_[r][d] = dist;
        const RouterConfig& dc = routers_[d].config();
        if (dc.loopback) {
          const Adjacency* hop = result.first_hop.at(d);
          fib.push_back(FibEntry{dc.loopback->prefix, RouteSource::kOspf, "",
                                 hop->next_hop, dist});
        }
      }
    }
    return;
  }

  // ==== Subnet (rendered-config) mode ======================================
  // Adjacency per area: both ends must cover the shared subnet in the
  // same area.
  std::map<std::int64_t, std::map<std::size_t, std::vector<Adjacency>>> area_adj;
  std::map<std::size_t, std::set<std::int64_t>> router_areas;
  for (const auto& segment : segments_) {
    for (const auto& a : segment.members) {
      std::int64_t area_a = 0;
      if (!ospf_covers(routers_[a.router].config(), segment.subnet, &area_a)) continue;
      router_areas[a.router].insert(area_a);
      const auto& iface_a = routers_[a.router].config().interfaces[a.iface];
      for (const auto& b : segment.members) {
        if (a.router == b.router) continue;
        std::int64_t area_b = 0;
        if (!ospf_covers(routers_[b.router].config(), segment.subnet, &area_b)) continue;
        if (area_a != area_b) continue;  // mismatched areas: no adjacency
        const auto& iface_b = routers_[b.router].config().interfaces[b.iface];
        area_adj[area_a][a.router].push_back(
            {b.router, static_cast<double>(iface_a.ospf_cost), iface_a.id,
             iface_b.address.address});
      }
    }
  }
  // Loopback/stub coverage also places a router in an area.
  for (std::size_t r = 0; r < n; ++r) {
    const RouterConfig& cfg = routers_[r].config();
    if (!cfg.ospf_enabled) continue;
    if (cfg.loopback) {
      std::int64_t area = 0;
      if (ospf_covers(cfg, cfg.loopback->prefix, &area)) {
        router_areas[r].insert(area);
      }
    }
  }

  // Record OSPF neighbors (design-vs-running validation, §5.7).
  for (std::size_t r = 0; r < n; ++r) {
    auto& neighbors = routers_[r].mutable_ospf_neighbors();
    neighbors.clear();
    std::set<std::size_t> seen;
    for (const auto& [area, adj] : area_adj) {
      auto it = adj.find(r);
      if (it == adj.end()) continue;
      for (const auto& a : it->second) {
        if (seen.insert(a.to).second) neighbors.push_back(routers_[a.to].name());
      }
    }
    std::sort(neighbors.begin(), neighbors.end());
  }

  // Per-(router, area) SPF.
  std::map<std::pair<std::size_t, std::int64_t>, SpfResult> spf_of;
  for (const auto& [area, adj] : area_adj) {
    for (const auto& [r, list] : adj) {
      (void)list;
      ++stats_.spf_runs;
      ++stats_.spf_per_router[routers_[r].name()];
      spf_of[{r, area}] = spf(r, adj);
    }
  }
  auto spf_for = [&spf_of](std::size_t r, std::int64_t area) -> const SpfResult* {
    auto it = spf_of.find({r, area});
    return it == spf_of.end() ? nullptr : &it->second;
  };

  // ABRs of an area: routers present in both the area and the backbone.
  std::map<std::int64_t, std::vector<std::size_t>> abrs;
  for (const auto& [r, areas] : router_areas) {
    if (!areas.contains(0)) continue;
    for (std::int64_t area : areas) {
      if (area != 0) abrs[area].push_back(r);
    }
  }

  // Every advertised prefix: (owner, prefix, area, stub cost 0).
  struct Advertised {
    std::size_t owner;
    Ipv4Prefix prefix;
    std::int64_t area;
  };
  std::vector<Advertised> prefixes;
  for (const auto& segment : segments_) {
    std::set<std::pair<std::size_t, std::int64_t>> done;
    for (const auto& m : segment.members) {
      std::int64_t area = 0;
      if (!ospf_covers(routers_[m.router].config(), segment.subnet, &area)) continue;
      if (done.insert({m.router, area}).second) {
        prefixes.push_back({m.router, segment.subnet, area});
      }
    }
  }
  for (std::size_t r = 0; r < n; ++r) {
    const RouterConfig& cfg = routers_[r].config();
    std::int64_t area = 0;
    if (cfg.loopback && ospf_covers(cfg, cfg.loopback->prefix, &area)) {
      prefixes.push_back({r, cfg.loopback->prefix, area});
    }
  }
  // Each advertised prefix is one LSA origination flooded through its area.
  stats_.lsa_floods += prefixes.size();

  // Distance helpers: reach a destination router within one area.
  auto intra_dist = [&](std::size_t r, std::int64_t area,
                        std::size_t d) -> std::pair<double, const Adjacency*> {
    if (r == d) return {0.0, nullptr};
    const SpfResult* result = spf_for(r, area);
    if (result == nullptr) return {kInf, nullptr};
    auto it = result->dist.find(d);
    if (it == result->dist.end()) return {kInf, nullptr};
    return {it->second, result->first_hop.at(d)};
  };

  // --- Build FIBs -----------------------------------------------------------
  for (std::size_t r = 0; r < n; ++r) {
    auto& fib = routers_[r].mutable_fib();
    fib.clear();
    if (router_failed(r)) {
      igp_dist_[r].clear();
      continue;
    }
    const RouterConfig& cfg = routers_[r].config();
    for (const auto& iface : cfg.interfaces) {
      fib.push_back(FibEntry{iface.address.prefix, RouteSource::kConnected,
                             iface.id, std::nullopt, 0});
    }
    if (cfg.loopback) {
      fib.push_back(FibEntry{cfg.loopback->prefix, RouteSource::kConnected, "",
                             std::nullopt, 0});
    }
    if (!cfg.ospf_enabled) continue;
    const auto& my_areas = router_areas[r];

    // Best OSPF candidate per prefix: intra-area beats inter-area.
    struct Candidate {
      bool intra = false;
      double metric = kInf;
      const Adjacency* hop = nullptr;
    };
    std::map<Ipv4Prefix, Candidate> best;

    auto offer = [&best](const Ipv4Prefix& prefix, bool intra, double metric,
                         const Adjacency* hop) {
      if (metric == kInf || hop == nullptr) return;
      Candidate& cur = best[prefix];
      if ((intra && !cur.intra) ||
          (intra == cur.intra && metric < cur.metric)) {
        cur = {intra, metric, hop};
      }
    };

    for (const auto& adv : prefixes) {
      if (adv.owner == r) continue;
      // Intra-area: r shares the prefix's area.
      if (my_areas.contains(adv.area)) {
        auto [dist, hop] = intra_dist(r, adv.area, adv.owner);
        offer(adv.prefix, true, dist, hop);
      }
      // Inter-area, via the backbone. Sources: if r is in area 0, reach
      // one of the target area's ABRs through area 0; otherwise reach
      // one of *our* area's ABRs first.
      if (adv.area != 0 || !my_areas.contains(0)) {
        const auto& target_abrs =
            adv.area == 0 ? std::vector<std::size_t>{adv.owner} : abrs[adv.area];
        for (std::size_t abr_b : target_abrs) {
          // Remote leg: ABR(B) -> owner within area B (0 if same router).
          double remote = 0.0;
          if (abr_b != adv.owner) {
            remote = intra_dist(abr_b, adv.area, adv.owner).first;
          }
          if (remote == kInf) continue;
          if (my_areas.contains(0)) {
            auto [d0, hop] = intra_dist(r, 0, abr_b);
            offer(adv.prefix, false, d0 + remote, hop);
          } else {
            for (std::int64_t area : my_areas) {
              for (std::size_t abr_a : abrs[area]) {
                double backbone = abr_a == abr_b
                                      ? 0.0
                                      : intra_dist(abr_a, 0, abr_b).first;
                if (backbone == kInf) continue;
                auto [da, hop] = intra_dist(r, area, abr_a);
                offer(adv.prefix, false, da + backbone + remote, hop);
              }
            }
          }
        }
      }
    }

    igp_dist_[r].clear();
    for (const auto& [prefix, cand] : best) {
      bool connected = false;
      for (const auto& iface : cfg.interfaces) {
        if (iface.address.prefix == prefix) connected = true;
      }
      if (cfg.loopback && cfg.loopback->prefix == prefix) connected = true;
      if (connected) continue;
      fib.push_back(FibEntry{prefix, RouteSource::kOspf, cand.hop->out_interface,
                             cand.hop->next_hop, cand.metric});
    }

    // IGP distances to routers (BGP next-hop metric): distance to the
    // router's loopback route, falling back to any interface prefix.
    for (std::size_t d = 0; d < n; ++d) {
      if (d == r) continue;
      double metric = kInf;
      const RouterConfig& dc = routers_[d].config();
      if (dc.loopback) {
        auto it = best.find(dc.loopback->prefix);
        if (it != best.end()) metric = it->second.metric;
      }
      if (metric == kInf) {
        for (const auto& iface : dc.interfaces) {
          auto it = best.find(iface.address.prefix);
          if (it != best.end()) metric = std::min(metric, it->second.metric);
        }
      }
      if (metric != kInf) igp_dist_[r][d] = metric;
    }
  }
}

}  // namespace autonet::emulation
