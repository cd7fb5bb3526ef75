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
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <span>

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

using AdjacencyMap = std::map<std::size_t, std::vector<Adjacency>>;

constexpr std::uint32_t kNoComponent = std::numeric_limits<std::uint32_t>::max();

/// SPF from every router of one adjacency graph (an OSPF area, or the
/// explicit links), addressed by index. The graph splits into connected
/// components — one per IGP domain using it; adjacencies are symmetric,
/// so a component is what SPF reaches — and the result from a router
/// holds, per member of its component in router-index order, the
/// distance and the first adjacency taken towards it.
class GraphSpf {
 public:
  GraphSpf(const AdjacencyMap& adj, std::size_t routers)
      : adj_(&adj), component_(routers, kNoComponent), local_(routers, 0),
        dist_(routers), first_hop_(routers) {
    // Label components in router order, so local indices follow it too.
    for (const auto& [r, list] : adj) {
      if (component_[r] != kNoComponent) continue;
      const auto c = static_cast<std::uint32_t>(members_.size());
      std::vector<std::size_t>& members = members_.emplace_back();
      component_[r] = c;
      std::vector<std::size_t> stack{r};
      while (!stack.empty()) {
        const std::size_t u = stack.back();
        stack.pop_back();
        members.push_back(u);
        auto it = adj.find(u);
        if (it == adj.end()) continue;
        for (const auto& a : it->second) {
          if (component_[a.to] == kNoComponent) {
            component_[a.to] = c;
            stack.push_back(a.to);
          }
        }
      }
      std::ranges::sort(members);
      for (std::size_t i = 0; i < members.size(); ++i) {
        local_[members[i]] = static_cast<std::uint32_t>(i);
      }
    }
  }

  /// Dijkstra from `src`; a router outside the graph reaches only itself.
  void run(std::size_t src) {
    if (component_[src] == kNoComponent) return;
    const std::size_t size = members_[component_[src]].size();
    std::vector<double>& dist = dist_[src];
    std::vector<const Adjacency*>& first_hop = first_hop_[src];
    dist.assign(size, kInf);
    first_hop.assign(size, nullptr);
    dist[local_[src]] = 0;
    // Heap ties break on the router index: the first hop kept among
    // equal-cost paths depends on it.
    using Item = std::pair<double, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    heap.emplace(0.0, src);
    while (!heap.empty()) {
      auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[local_[u]]) continue;
      auto it = adj_->find(u);
      if (it == adj_->end()) continue;
      for (const auto& a : it->second) {
        const double nd = d + a.cost;
        const std::uint32_t v = local_[a.to];
        if (nd < dist[v]) {
          dist[v] = nd;
          first_hop[v] = u == src ? &a : first_hop[local_[u]];
          heap.emplace(nd, a.to);
        }
      }
    }
  }

  /// Distance and first adjacency from `r` to `d` within the graph, once
  /// run(r) has run; {0, nullptr} to itself, {inf, nullptr} when
  /// unreachable.
  [[nodiscard]] std::pair<double, const Adjacency*> to(std::size_t r,
                                                       std::size_t d) const {
    if (r == d) return {0.0, nullptr};
    if (component_[r] == kNoComponent || component_[r] != component_[d] ||
        dist_[r].empty()) {
      return {kInf, nullptr};
    }
    return {dist_[r][local_[d]], first_hop_[r][local_[d]]};
  }

  /// The members of `r`'s component in router order, itself included;
  /// empty when `r` is outside the graph.
  [[nodiscard]] const std::vector<std::size_t>& component_of(std::size_t r) const {
    static const std::vector<std::size_t> kAlone;
    return component_[r] == kNoComponent ? kAlone : members_[component_[r]];
  }

 private:
  const AdjacencyMap* adj_;
  std::vector<std::uint32_t> component_;  // by router
  std::vector<std::uint32_t> local_;      // by router: index in its component
  std::vector<std::vector<std::size_t>> members_;
  std::vector<std::vector<double>> dist_;  // by source router, by local index
  std::vector<std::vector<const Adjacency*>> first_hop_;
};

}  // namespace

void EmulatedNetwork::compute_ospf() {
  const std::size_t n = routers_.size();
  igp_dist_.assign(n, {});
  direct_neighbors_.assign(n, {});

  // ==== Explicit-links (C-BGP) mode =========================================
  if (!explicit_links_.empty()) {
    AdjacencyMap adj;
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
    GraphSpf spf(adj, n);
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
      spf.run(r);
      auto& fib = routers_[r].mutable_fib();
      fib.clear();
      const RouterConfig& cfg = routers_[r].config();
      if (cfg.loopback) {
        fib.push_back(FibEntry{cfg.loopback->prefix, RouteSource::kConnected, "",
                               std::nullopt, 0});
      }
      igp_dist_[r].clear();
      for (std::size_t d : spf.component_of(r)) {
        if (d == r) continue;
        auto [dist, hop] = spf.to(r, d);
        igp_dist_[r].emplace_hint(igp_dist_[r].end(), d, dist);
        const RouterConfig& dc = routers_[d].config();
        if (dc.loopback) {
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
  std::map<std::int64_t, GraphSpf> spf_of;
  for (const auto& [area, adj] : area_adj) {
    GraphSpf& spf = spf_of.try_emplace(area, adj, n).first->second;
    for (const auto& [r, list] : adj) {
      (void)list;
      ++stats_.spf_runs;
      ++stats_.spf_per_router[routers_[r].name()];
      spf.run(r);
    }
  }
  auto spf_for = [&spf_of](std::int64_t area) -> const GraphSpf* {
    auto it = spf_of.find(area);
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

  // Every advertised prefix: (owner, prefix, area, stub cost 0), with its
  // prefix id and its area's SPF.
  struct Advertised {
    std::size_t owner;
    Ipv4Prefix prefix;
    std::int64_t area;
    std::size_t id = 0;
    const GraphSpf* spf = nullptr;
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

  // Prefix ids in prefix order (the FIB's OSPF order), and per id the
  // routers whose loopback, or one of whose interfaces, it addresses.
  std::vector<Ipv4Prefix> ids;
  ids.reserve(prefixes.size());
  for (const auto& adv : prefixes) ids.push_back(adv.prefix);
  std::ranges::sort(ids);
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  auto id_of = [&ids](const Ipv4Prefix& prefix) -> std::optional<std::size_t> {
    auto it = std::ranges::lower_bound(ids, prefix);
    if (it == ids.end() || *it != prefix) return std::nullopt;
    return static_cast<std::size_t>(it - ids.begin());
  };
  for (auto& adv : prefixes) {
    adv.id = *id_of(adv.prefix);
    adv.spf = spf_for(adv.area);
  }
  std::vector<std::vector<std::size_t>> loopback_of(ids.size());
  std::vector<std::vector<std::size_t>> interface_of(ids.size());
  for (std::size_t d = 0; d < n; ++d) {
    const RouterConfig& dc = routers_[d].config();
    if (dc.loopback) {
      if (auto id = id_of(dc.loopback->prefix)) loopback_of[*id].push_back(d);
    }
    for (const auto& iface : dc.interfaces) {
      if (auto id = id_of(iface.address.prefix)) interface_of[*id].push_back(d);
    }
  }

  // Distance helper: reach a destination router within one area.
  auto intra_dist = [](const GraphSpf* spf, std::size_t r,
                       std::size_t d) -> std::pair<double, const Adjacency*> {
    if (r == d) return {0.0, nullptr};
    if (spf == nullptr) return {kInf, nullptr};
    return spf->to(r, d);
  };
  const GraphSpf* backbone = spf_for(0);

  // Best OSPF candidate per prefix id: intra-area beats inter-area.
  struct Candidate {
    bool intra = false;
    double metric = kInf;
    const Adjacency* hop = nullptr;
  };
  // Per-router scratch, reset after each router: candidates and the ids
  // holding one, distances via a router's loopback or interfaces and the
  // routers holding one.
  std::vector<Candidate> best(ids.size());
  std::vector<std::size_t> offered;
  std::vector<double> via_loopback(n, kInf);
  std::vector<double> via_interface(n, kInf);
  std::vector<std::size_t> addressed;

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

    auto offer = [&best, &offered](std::size_t id, bool intra, double metric,
                                   const Adjacency* hop) {
      if (metric == kInf || hop == nullptr) return;
      Candidate& cur = best[id];
      if (cur.hop == nullptr) offered.push_back(id);
      if ((intra && !cur.intra) ||
          (intra == cur.intra && metric < cur.metric)) {
        cur = {intra, metric, hop};
      }
    };

    for (const auto& adv : prefixes) {
      if (adv.owner == r) continue;
      // Intra-area: r shares the prefix's area.
      if (my_areas.contains(adv.area)) {
        auto [dist, hop] = intra_dist(adv.spf, r, adv.owner);
        offer(adv.id, true, dist, hop);
      }
      // Inter-area, via the backbone. Sources: if r is in area 0, reach
      // one of the target area's ABRs through area 0; otherwise reach
      // one of *our* area's ABRs first.
      if (adv.area != 0 || !my_areas.contains(0)) {
        using Routers = std::span<const std::size_t>;
        const Routers target_abrs =
            adv.area == 0 ? Routers(&adv.owner, 1) : Routers(abrs[adv.area]);
        for (std::size_t abr_b : target_abrs) {
          // Remote leg: ABR(B) -> owner within area B (0 if same router).
          double remote = 0.0;
          if (abr_b != adv.owner) {
            remote = intra_dist(adv.spf, abr_b, adv.owner).first;
          }
          if (remote == kInf) continue;
          if (my_areas.contains(0)) {
            auto [d0, hop] = intra_dist(backbone, r, abr_b);
            offer(adv.id, false, d0 + remote, hop);
          } else {
            for (std::int64_t area : my_areas) {
              for (std::size_t abr_a : abrs[area]) {
                double backbone_dist = abr_a == abr_b
                                           ? 0.0
                                           : intra_dist(backbone, abr_a, abr_b).first;
                if (backbone_dist == kInf) continue;
                auto [da, hop] = intra_dist(spf_for(area), r, abr_a);
                offer(adv.id, false, da + backbone_dist + remote, hop);
              }
            }
          }
        }
      }
    }

    std::ranges::sort(offered);
    igp_dist_[r].clear();
    for (std::size_t id : offered) {
      const Candidate& cand = best[id];
      const Ipv4Prefix& prefix = ids[id];
      bool connected = false;
      for (const auto& iface : cfg.interfaces) {
        if (iface.address.prefix == prefix) connected = true;
      }
      if (cfg.loopback && cfg.loopback->prefix == prefix) connected = true;
      if (!connected) {
        fib.push_back(FibEntry{prefix, RouteSource::kOspf, cand.hop->out_interface,
                               cand.hop->next_hop, cand.metric});
      }
      // IGP distances to routers (BGP next-hop metric): distance to the
      // router's loopback route, falling back to any interface prefix.
      for (std::size_t d : loopback_of[id]) {
        if (via_loopback[d] == kInf && via_interface[d] == kInf) addressed.push_back(d);
        via_loopback[d] = cand.metric;
      }
      for (std::size_t d : interface_of[id]) {
        if (via_loopback[d] == kInf && via_interface[d] == kInf) addressed.push_back(d);
        via_interface[d] = std::min(via_interface[d], cand.metric);
      }
      best[id] = {};
    }
    offered.clear();
    std::ranges::sort(addressed);
    for (std::size_t d : addressed) {
      if (d != r) {
        igp_dist_[r].emplace_hint(igp_dist_[r].end(), d,
                                  via_loopback[d] != kInf ? via_loopback[d]
                                                          : via_interface[d]);
      }
      via_loopback[d] = kInf;
      via_interface[d] = kInf;
    }
    addressed.clear();
  }
}

}  // namespace autonet::emulation
