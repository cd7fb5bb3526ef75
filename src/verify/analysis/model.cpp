#include "verify/analysis/model.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "emulation/router.hpp"
#include "nidb/value.hpp"

namespace autonet::verify::analysis {

using addressing::Ipv4Addr;
using addressing::Ipv4Interface;
using addressing::Ipv4Prefix;
using emulation::BgpNeighborConfig;
using emulation::BgpRoute;
using emulation::BgpSession;
using emulation::FibEntry;
using emulation::InterfaceConfig;
using emulation::lookup;
using emulation::OspfNetworkConfig;
using emulation::ospf_covers;
using emulation::owns_address;
using emulation::RouteSource;
using emulation::router_id;
using emulation::RouterConfig;
using emulation::Segment;
using emulation::SegmentMember;
using emulation::session_source;
using nidb::Array;
using nidb::Value;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

const std::string* find_string(const Value& v, std::string_view path) {
  const Value* f = v.find_path(path);
  return f != nullptr ? f->as_string() : nullptr;
}

std::int64_t find_int(const Value& v, std::string_view path, std::int64_t fallback) {
  const Value* f = v.find_path(path);
  if (f == nullptr) return fallback;
  return f->as_int().value_or(fallback);
}

std::optional<Ipv4Interface> parse_interface_addr(std::string_view with_len) {
  auto slash = with_len.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  auto addr = Ipv4Addr::parse(with_len.substr(0, slash));
  auto prefix = Ipv4Prefix::parse(with_len);
  if (!addr || !prefix) return std::nullopt;
  return Ipv4Interface{*addr, *prefix};
}

struct Adjacency {
  std::size_t to;
  double cost;
  std::string out_interface;
  Ipv4Addr next_hop;  // peer's interface address on the shared subnet
};

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

std::vector<Segment> build_segments(const std::vector<RouterConfig>& routers,
                                    const std::set<Ipv4Prefix>& failed_subnets) {
  std::map<Ipv4Prefix, std::vector<SegmentMember>> groups;
  for (std::size_t r = 0; r < routers.size(); ++r) {
    const RouterConfig& cfg = routers[r];
    for (std::size_t i = 0; i < cfg.interfaces.size(); ++i) {
      const Ipv4Prefix& subnet = cfg.interfaces[i].address.prefix;
      if (failed_subnets.contains(subnet)) continue;
      groups[subnet].push_back(SegmentMember{r, i});
    }
  }
  std::vector<Segment> segments;
  segments.reserve(groups.size());
  for (auto& [subnet, members] : groups) {
    segments.push_back(Segment{subnet, std::move(members)});
  }
  return segments;
}

}  // namespace

Model Model::from_nidb(const nidb::Nidb& nidb) {
  Model model;
  for (const nidb::DeviceRecord* rec : nidb.devices()) {
    const Value& d = rec->data;
    const std::string* type = find_string(d, "device_type");
    if (type == nullptr || *type != "router") continue;

    RouterConfig cfg;
    cfg.hostname = rec->name;
    if (const std::string* syntax = find_string(d, "syntax")) cfg.syntax = *syntax;
    if (const std::string* lo = find_string(d, "loopback")) {
      cfg.loopback = parse_interface_addr(*lo);
    }
    if (const Value* ifaces = d.find("interfaces")) {
      if (const Array* arr = ifaces->as_array()) {
        for (const Value& iface : *arr) {
          const std::string* id = iface.find("id") != nullptr
                                      ? iface.find("id")->as_string()
                                      : nullptr;
          const std::string* ip = iface.find("ip_address") != nullptr
                                      ? iface.find("ip_address")->as_string()
                                      : nullptr;
          const Value* len = iface.find("prefixlen");
          if (id == nullptr || ip == nullptr || len == nullptr) continue;
          auto parsed = parse_interface_addr(
              *ip + "/" + std::to_string(len->as_int().value_or(0)));
          if (!parsed) continue;
          InterfaceConfig ic;
          ic.id = *id;
          ic.address = *parsed;
          if (const Value* cost = iface.find("ospf_cost")) {
            ic.ospf_cost = cost->as_int().value_or(1);
          }
          cfg.interfaces.push_back(std::move(ic));
        }
      }
    }

    if (const Value* ospf = d.find("ospf")) {
      cfg.ospf_enabled = true;
      if (const std::string* rid = find_string(*ospf, "router_id")) {
        cfg.router_id = Ipv4Addr::parse(*rid);
      }
      if (const Value* links = ospf->find("ospf_links")) {
        if (const Array* arr = links->as_array()) {
          for (const Value& link : *arr) {
            const std::string* network = link.find("network") != nullptr
                                             ? link.find("network")->as_string()
                                             : nullptr;
            if (network == nullptr) continue;
            auto prefix = Ipv4Prefix::parse(*network);
            if (!prefix) continue;
            OspfNetworkConfig net;
            net.network = *prefix;
            if (const Value* area = link.find("area")) {
              net.area = area->as_int().value_or(0);
            }
            cfg.ospf_networks.push_back(net);
          }
        }
      }
    }

    if (const Value* bgp = d.find("bgp")) {
      cfg.bgp_enabled = true;
      cfg.asn = find_int(*bgp, "asn", find_int(d, "asn", 0));
      if (!cfg.router_id) {
        if (const std::string* rid = find_string(*bgp, "router_id")) {
          cfg.router_id = Ipv4Addr::parse(*rid);
        }
      }
      if (const Value* tiebreak = bgp->find("igp_tiebreak")) {
        cfg.igp_tiebreak = tiebreak->truthy();
      }
      if (const Value* networks = bgp->find("networks")) {
        if (const Array* arr = networks->as_array()) {
          for (const Value& network : *arr) {
            const std::string* s = network.as_string();
            if (s == nullptr) continue;
            if (auto prefix = Ipv4Prefix::parse(*s)) {
              cfg.bgp_networks.push_back(*prefix);
            }
          }
        }
      }
      for (const bool ibgp : {true, false}) {
        const Value* list =
            bgp->find(ibgp ? "ibgp_neighbors" : "ebgp_neighbors");
        const Array* arr = list != nullptr ? list->as_array() : nullptr;
        if (arr == nullptr) continue;
        for (const Value& n : *arr) {
          const std::string* ip = n.find("neighbor") != nullptr
                                      ? n.find("neighbor")->as_string()
                                      : nullptr;
          if (ip == nullptr) continue;
          auto addr = Ipv4Addr::parse(*ip);
          if (!addr) continue;
          BgpNeighborConfig nc;
          nc.neighbor = *addr;
          nc.remote_as = find_int(n, "remote_as", 0);
          if (ibgp) {
            const std::string* us = find_string(n, "update_source");
            nc.update_source_loopback = us != nullptr && !us->empty();
            if (const Value* nhs = n.find("next_hop_self")) {
              nc.next_hop_self = nhs->truthy();
            }
            if (const Value* rr = n.find("rr_client")) {
              nc.rr_client = rr->truthy();
            }
          } else {
            if (const Value* olo = n.find("only_local_out")) {
              nc.only_local_out = olo->truthy();
            }
            nc.local_pref_in = find_int(n, "local_pref_in", 0);
            nc.med_out = find_int(n, "med_out", -1);
          }
          cfg.bgp_neighbors.push_back(std::move(nc));
        }
      }
    } else {
      cfg.asn = find_int(d, "asn", 0);
    }
    model.configs_.push_back(std::move(cfg));
  }

  // nidb.devices() is name-sorted; keep that order and index it.
  for (std::size_t r = 0; r < model.configs_.size(); ++r) {
    const RouterConfig& cfg = model.configs_[r];
    model.by_name_[cfg.hostname] = r;
    if (cfg.loopback) model.by_address_[cfg.loopback->address.value()] = r;
    for (const auto& iface : cfg.interfaces) {
      model.by_address_[iface.address.address.value()] = r;
    }
  }
  return model;
}

const RouterConfig* Model::router(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &configs_[it->second];
}

std::optional<std::size_t> Model::index_of(std::string_view name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::string> Model::owner_of(Ipv4Addr addr) const {
  auto it = by_address_.find(addr.value());
  if (it == by_address_.end()) return std::nullopt;
  return configs_[it->second].hostname;
}

std::vector<Link> Model::links() const {
  std::vector<Link> links;
  for (const Segment& segment : build_segments(configs_, {})) {
    std::set<std::string> names;
    for (const SegmentMember& m : segment.members) {
      names.insert(configs_[m.router].hostname);
    }
    if (names.size() < 2) continue;
    Link link;
    link.subnet = segment.subnet;
    link.members.assign(names.begin(), names.end());
    link.a = link.members[0];
    link.b = link.members[1];
    links.push_back(std::move(link));
  }
  return links;
}

// ---------------------------------------------------------------------------
// predict(): OSPF SPF per area, BGP decision process, FIB install. Every
// stage mirrors the corresponding src/emulation/ algorithm; divergence
// here is a bug that `autonet analyze --cross-check` exists to catch.
// ---------------------------------------------------------------------------

Prediction predict(const Model& model, const std::set<Ipv4Prefix>& failed_subnets,
                   std::size_t max_bgp_rounds) {
  const std::vector<RouterConfig>& routers = model.routers();
  const std::size_t n = routers.size();
  Prediction out;
  out.fibs.assign(n, {});
  out.igp_dist.assign(n, {});

  const std::vector<Segment> segments = build_segments(routers, failed_subnets);

  // --- OSPF: adjacency per area (both ends cover the subnet in the same
  // area), per-(router, area) SPF, inter-area routing through ABRs.
  std::map<std::int64_t, std::map<std::size_t, std::vector<Adjacency>>> area_adj;
  std::map<std::size_t, std::set<std::int64_t>> router_areas;
  for (const auto& segment : segments) {
    for (const auto& a : segment.members) {
      std::int64_t area_a = 0;
      if (!ospf_covers(routers[a.router], segment.subnet, &area_a)) continue;
      router_areas[a.router].insert(area_a);
      const auto& iface_a = routers[a.router].interfaces[a.iface];
      for (const auto& b : segment.members) {
        if (a.router == b.router) continue;
        std::int64_t area_b = 0;
        if (!ospf_covers(routers[b.router], segment.subnet, &area_b)) continue;
        if (area_a != area_b) continue;  // mismatched areas: no adjacency
        const auto& iface_b = routers[b.router].interfaces[b.iface];
        area_adj[area_a][a.router].push_back(
            {b.router, static_cast<double>(iface_a.ospf_cost), iface_a.id,
             iface_b.address.address});
      }
    }
  }
  for (std::size_t r = 0; r < n; ++r) {
    const RouterConfig& cfg = routers[r];
    if (!cfg.ospf_enabled) continue;
    if (cfg.loopback) {
      std::int64_t area = 0;
      if (ospf_covers(cfg, cfg.loopback->prefix, &area)) {
        router_areas[r].insert(area);
      }
    }
  }

  std::map<std::pair<std::size_t, std::int64_t>, SpfResult> spf_of;
  for (const auto& [area, adj] : area_adj) {
    for (const auto& [r, list] : adj) {
      (void)list;
      ++out.spf_runs;
      spf_of[{r, area}] = spf(r, adj);
    }
  }
  auto spf_for = [&spf_of](std::size_t r, std::int64_t area) -> const SpfResult* {
    auto it = spf_of.find({r, area});
    return it == spf_of.end() ? nullptr : &it->second;
  };

  std::map<std::int64_t, std::vector<std::size_t>> abrs;
  for (const auto& [r, areas] : router_areas) {
    if (!areas.contains(0)) continue;
    for (std::int64_t area : areas) {
      if (area != 0) abrs[area].push_back(r);
    }
  }

  struct Advertised {
    std::size_t owner;
    Ipv4Prefix prefix;
    std::int64_t area;
  };
  std::vector<Advertised> prefixes;
  for (const auto& segment : segments) {
    std::set<std::pair<std::size_t, std::int64_t>> done;
    for (const auto& m : segment.members) {
      std::int64_t area = 0;
      if (!ospf_covers(routers[m.router], segment.subnet, &area)) continue;
      if (done.insert({m.router, area}).second) {
        prefixes.push_back({m.router, segment.subnet, area});
      }
    }
  }
  for (std::size_t r = 0; r < n; ++r) {
    const RouterConfig& cfg = routers[r];
    std::int64_t area = 0;
    if (cfg.loopback && ospf_covers(cfg, cfg.loopback->prefix, &area)) {
      prefixes.push_back({r, cfg.loopback->prefix, area});
    }
  }

  auto intra_dist = [&](std::size_t r, std::int64_t area,
                        std::size_t d) -> std::pair<double, const Adjacency*> {
    if (r == d) return {0.0, nullptr};
    const SpfResult* result = spf_for(r, area);
    if (result == nullptr) return {kInf, nullptr};
    auto it = result->dist.find(d);
    if (it == result->dist.end()) return {kInf, nullptr};
    return {it->second, result->first_hop.at(d)};
  };

  for (std::size_t r = 0; r < n; ++r) {
    auto& fib = out.fibs[r];
    const RouterConfig& cfg = routers[r];
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
      if ((intra && !cur.intra) || (intra == cur.intra && metric < cur.metric)) {
        cur = {intra, metric, hop};
      }
    };

    for (const auto& adv : prefixes) {
      if (adv.owner == r) continue;
      if (my_areas.contains(adv.area)) {
        auto [dist, hop] = intra_dist(r, adv.area, adv.owner);
        offer(adv.prefix, true, dist, hop);
      }
      if (adv.area != 0 || !my_areas.contains(0)) {
        const auto& target_abrs =
            adv.area == 0 ? std::vector<std::size_t>{adv.owner} : abrs[adv.area];
        for (std::size_t abr_b : target_abrs) {
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
                double backbone =
                    abr_a == abr_b ? 0.0 : intra_dist(abr_a, 0, abr_b).first;
                if (backbone == kInf) continue;
                auto [da, hop] = intra_dist(r, area, abr_a);
                offer(adv.prefix, false, da + backbone + remote, hop);
              }
            }
          }
        }
      }
    }

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

    for (std::size_t d = 0; d < n; ++d) {
      if (d == r) continue;
      double metric = kInf;
      const RouterConfig& dc = routers[d];
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
      if (metric != kInf) out.igp_dist[r][d] = metric;
    }
  }

  // --- BGP: sessions, propagation rounds, decision process, install.
  auto igp_metric_to = [&](std::size_t r, Ipv4Addr addr) -> double {
    auto owner = model.by_address().find(addr.value());
    if (owner == model.by_address().end()) return kInf;
    if (owner->second == r) return 0.0;
    const auto& dist = out.igp_dist[r];
    auto it = dist.find(owner->second);
    return it == dist.end() ? kInf : it->second;
  };

  std::vector<BgpSession> sessions;
  for (std::size_t r = 0; r < n; ++r) {
    const RouterConfig& cfg = routers[r];
    if (!cfg.bgp_enabled) continue;
    for (const auto& neighbor : cfg.bgp_neighbors) {
      auto owner = model.by_address().find(neighbor.neighbor.value());
      if (owner == model.by_address().end()) continue;
      std::size_t peer = owner->second;
      if (peer == r) continue;
      const RouterConfig& pc = routers[peer];
      if (!pc.bgp_enabled) continue;
      bool matched = false;
      for (const auto& pn : pc.bgp_neighbors) {
        if (owns_address(cfg, pn.neighbor) && pn.remote_as == cfg.asn &&
            neighbor.remote_as == pc.asn) {
          matched = true;
          break;
        }
      }
      if (!matched) continue;
      BgpSession s;
      s.local = r;
      s.peer = peer;
      s.peer_addr = neighbor.neighbor;
      s.local_addr =
          session_source(cfg, neighbor.neighbor, neighbor.update_source_loopback);
      s.ebgp = cfg.asn != pc.asn;
      s.peer_is_client = neighbor.rr_client;
      s.next_hop_self = neighbor.next_hop_self;
      s.only_local_out = neighbor.only_local_out;
      s.med_out = neighbor.med_out;
      bool reachable = false;
      for (const auto& iface : cfg.interfaces) {
        if (iface.address.prefix.contains(neighbor.neighbor) &&
            !failed_subnets.contains(iface.address.prefix)) {
          reachable = true;
          break;
        }
      }
      if (!reachable) reachable = igp_metric_to(r, neighbor.neighbor) != kInf;
      if (!reachable) continue;
      sessions.push_back(s);
    }
  }
  out.bgp_sessions = sessions.size();

  std::vector<std::vector<std::size_t>> sessions_of(n);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    sessions_of[sessions[i].local].push_back(i);
  }

  std::map<std::pair<std::size_t, std::uint32_t>, std::int64_t> pref_in;
  for (std::size_t r = 0; r < n; ++r) {
    for (const auto& neighbor : routers[r].bgp_neighbors) {
      if (neighbor.local_pref_in > 0) {
        pref_in[{r, neighbor.neighbor.value()}] = neighbor.local_pref_in;
      }
    }
  }

  using RibInKey = std::pair<std::string, std::uint32_t>;
  std::vector<std::map<RibInKey, BgpRoute>> rib_in(n);
  std::vector<std::map<std::string, BgpRoute>> bgp_best(n);
  for (std::size_t r = 0; r < n; ++r) {
    const RouterConfig& cfg = routers[r];
    for (const auto& prefix : cfg.bgp_networks) {
      BgpRoute route;
      route.prefix = prefix;
      route.next_hop = router_id(cfg);
      route.weight = 32768;
      route.local_originated = true;
      route.originator_id = router_id(cfg);
      rib_in[r][{prefix.to_string(), 0}] = route;
    }
  }

  auto better = [&](std::size_t r, const BgpRoute& a, const BgpRoute& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.local_pref != b.local_pref) return a.local_pref > b.local_pref;
    if (a.as_path.size() != b.as_path.size()) {
      return a.as_path.size() < b.as_path.size();
    }
    if (!a.as_path.empty() && !b.as_path.empty() &&
        a.as_path.front() == b.as_path.front() && a.med != b.med) {
      return a.med < b.med;
    }
    if (a.ebgp_learned != b.ebgp_learned) return a.ebgp_learned;
    if (routers[r].igp_tiebreak) {
      double ma = igp_metric_to(r, a.next_hop);
      double mb = igp_metric_to(r, b.next_hop);
      if (ma != mb) return ma < mb;
    }
    if (a.originator_id != b.originator_id) return a.originator_id < b.originator_id;
    return a.from_peer < b.from_peer;
  };

  auto select_best = [&](std::size_t r) {
    std::map<std::string, BgpRoute> best;
    for (const auto& [key, route] : rib_in[r]) {
      if (!route.local_originated) {
        bool resolvable = owns_address(routers[r], route.next_hop);
        if (!resolvable) {
          for (const auto& iface : routers[r].interfaces) {
            if (iface.address.prefix.contains(route.next_hop)) resolvable = true;
          }
        }
        if (!resolvable) resolvable = igp_metric_to(r, route.next_hop) != kInf;
        if (!resolvable) continue;
      }
      auto it = best.find(key.first);
      if (it == best.end() || better(r, route, it->second)) {
        best[key.first] = route;
      }
    }
    return best;
  };

  std::map<std::size_t, std::size_t> seen_states;
  for (std::size_t round = 1; round <= max_bgp_rounds; ++round) {
    bool changed = false;
    for (std::size_t r = 0; r < n; ++r) {
      if (!routers[r].bgp_enabled) continue;
      auto best = select_best(r);
      if (best == bgp_best[r] && round > 1) continue;

      for (const auto& [prefix, old_route] : bgp_best[r]) {
        (void)old_route;
        if (best.contains(prefix)) continue;
        for (std::size_t si : sessions_of[r]) {
          const BgpSession& s = sessions[si];
          rib_in[s.peer].erase({prefix, s.local_addr.value()});
        }
        changed = true;
      }

      for (const auto& [prefix, route] : best) {
        const BgpRoute* previous = nullptr;
        auto prev_it = bgp_best[r].find(prefix);
        if (prev_it != bgp_best[r].end()) previous = &prev_it->second;
        const bool is_new = previous == nullptr || !(*previous == route);
        if (!is_new) continue;
        changed = true;
        for (std::size_t si : sessions_of[r]) {
          const BgpSession& s = sessions[si];
          const auto rib_key = std::make_pair(prefix, s.local_addr.value());
          if (!route.local_originated && route.from_peer == s.peer_addr) {
            rib_in[s.peer].erase(rib_key);
            continue;
          }
          if (s.only_local_out && !route.local_originated) {
            rib_in[s.peer].erase(rib_key);
            continue;
          }
          bool advertise = false;
          BgpRoute adv = route;
          adv.from_peer = s.local_addr;
          adv.weight = 0;
          adv.local_originated = false;
          if (s.ebgp) {
            advertise = true;
            adv.as_path.insert(adv.as_path.begin(), routers[r].asn);
            adv.next_hop = s.local_addr;
            auto pref = pref_in.find({s.peer, s.local_addr.value()});
            adv.local_pref = pref == pref_in.end() ? 100 : pref->second;
            adv.med = s.med_out >= 0 ? s.med_out : 0;
            adv.originator_id = Ipv4Addr{};
            adv.cluster_list.clear();
            adv.ebgp_learned = true;
          } else {
            adv.ebgp_learned = false;
            if (route.local_originated || route.ebgp_learned) {
              advertise = true;
              if (s.next_hop_self || route.local_originated) {
                adv.next_hop = session_source(routers[r], s.peer_addr, true);
              }
              adv.originator_id = router_id(routers[r]);
            } else {
              const bool learned_from_client = [&]() {
                for (std::size_t lj : sessions_of[r]) {
                  const BgpSession& ls = sessions[lj];
                  if (ls.peer_addr == route.from_peer) return ls.peer_is_client;
                }
                return false;
              }();
              advertise = learned_from_client || s.peer_is_client;
              if (advertise) {
                adv.cluster_list.push_back(router_id(routers[r]));
              }
            }
          }
          if (!advertise) {
            rib_in[s.peer].erase(rib_key);
            continue;
          }
          bool drop = false;
          if (s.ebgp) {
            for (auto as : adv.as_path) {
              if (as == routers[s.peer].asn) drop = true;
            }
          } else {
            const Ipv4Addr peer_id = router_id(routers[s.peer]);
            if (adv.originator_id == peer_id) drop = true;
            for (const auto& cluster : adv.cluster_list) {
              if (cluster == peer_id) drop = true;
            }
          }
          if (drop) {
            rib_in[s.peer].erase(rib_key);
          } else {
            rib_in[s.peer][rib_key] = adv;
          }
        }
      }
      bgp_best[r] = std::move(best);
    }

    out.bgp_rounds = round;
    if (!changed) {
      out.bgp_converged = true;
      break;
    }
    std::string state;
    for (std::size_t r = 0; r < n; ++r) {
      state += routers[r].hostname + "{";
      for (const auto& [prefix, route] : bgp_best[r]) {
        (void)prefix;
        state += route.fingerprint() + ";";
      }
      state += "}";
    }
    std::size_t h = std::hash<std::string>{}(state);
    auto [it, inserted] = seen_states.emplace(h, round);
    if (!inserted) {
      out.bgp_oscillating = true;
      break;
    }
  }

  // Install: resolve each selected route's next hop (directly connected
  // or recursively via a non-BGP route) and add the FIB entry.
  for (std::size_t r = 0; r < n; ++r) {
    auto& fib = out.fibs[r];
    for (const auto& [prefix_str, route] : bgp_best[r]) {
      (void)prefix_str;
      if (route.local_originated) continue;
      std::string out_interface;
      std::optional<Ipv4Addr> immediate;
      bool resolved = false;
      for (const auto& iface : routers[r].interfaces) {
        if (iface.address.prefix.contains(route.next_hop)) {
          out_interface = iface.id;
          immediate = route.next_hop;
          resolved = true;
          break;
        }
      }
      if (!resolved) {
        const FibEntry* via = lookup(fib, route.next_hop);
        if (via != nullptr && via->source != RouteSource::kEbgp &&
            via->source != RouteSource::kIbgp) {
          out_interface = via->out_interface;
          immediate = via->next_hop ? via->next_hop : route.next_hop;
          resolved = true;
        }
      }
      if (!resolved) continue;
      fib.push_back(FibEntry{
          route.prefix,
          route.ebgp_learned ? RouteSource::kEbgp : RouteSource::kIbgp,
          out_interface, immediate, static_cast<double>(route.as_path.size())});
    }
  }
  return out;
}

namespace {

/// The Path fields a walk's outcome decides.
void set_outcome(Path& path, const emulation::WalkOutcome& outcome,
                 const std::vector<RouterConfig>& routers) {
  path.reached = outcome.end == emulation::WalkEnd::kReached;
  path.looped = outcome.end == emulation::WalkEnd::kTtlExceeded;
  if (outcome.end == emulation::WalkEnd::kDropped) {
    path.dropped_at = routers[outcome.at].hostname;
  }
}

}  // namespace

Path trace(const Model& model, const Prediction& prediction,
           std::string_view src_router, Ipv4Addr dst, int max_ttl) {
  Path path;
  const auto src = model.index_of(src_router);
  if (!src) {
    path.dropped_at = std::string(src_router);
    return path;
  }
  const auto& routers = model.routers();
  const auto router_at = [&](std::size_t r) {
    return emulation::ForwardingRouter{routers[r], prediction.fibs[r]};
  };
  const emulation::WalkOutcome outcome = emulation::walk(
      *src, dst, max_ttl, model.by_address(), router_at,
      [&](std::size_t r, Ipv4Addr reply) {
        path.hops.push_back({reply, routers[r].hostname});
      });
  set_outcome(path, outcome, routers);
  return path;
}

Path trace_to_router(const Model& model, const Prediction& prediction,
                     std::string_view src_router, std::string_view dst_router,
                     int max_ttl) {
  const RouterConfig* dst = model.router(dst_router);
  const auto target = dst != nullptr ? emulation::trace_target(*dst) : std::nullopt;
  if (!target) {
    Path path;
    path.dropped_at = std::string(src_router);
    return path;
  }
  return trace(model, prediction, src_router, *target, max_ttl);
}

PathTable::PathTable(const Model& model, const Prediction& prediction, int max_ttl)
    : size_(model.size()) {
  const auto& routers = model.routers();
  const auto router_at = [&](std::size_t r) {
    return emulation::ForwardingRouter{routers[r], prediction.fibs[r]};
  };
  emulation::ColumnBuilder columns(size_, model.by_address(), router_at);
  cells_.reserve(size_ * size_);
  std::vector<emulation::ForwardingCell> column;
  for (std::size_t d = 0; d < size_; ++d) {
    if (const auto target = emulation::trace_target(routers[d])) {
      columns.build(*target, max_ttl, column);
    } else {
      // No address to probe: trace_to_router drops at the source.
      column.assign(size_, {});
      for (std::size_t s = 0; s < size_; ++s) column[s].next = static_cast<std::uint32_t>(s);
    }
    cells_.insert(cells_.end(), column.begin(), column.end());
  }
}

std::optional<std::size_t> PathTable::dropped_at(std::size_t src, std::size_t dst) const {
  if (cell(src, dst).end != emulation::WalkEnd::kDropped) return std::nullopt;
  return emulation::column_outcome(column(dst), src).at;
}

void PathTable::routers(std::size_t src, std::size_t dst,
                        std::vector<std::size_t>& out) const {
  out.assign(1, src);
  emulation::column_walk(column(dst), src,
                         [&out](std::size_t r, Ipv4Addr) { out.push_back(r); });
}

Path PathTable::path(const Model& model, std::size_t src, std::size_t dst) const {
  const auto& routers = model.routers();
  Path path;
  emulation::column_walk(column(dst), src, [&](std::size_t r, Ipv4Addr reply) {
    path.hops.push_back({reply, routers[r].hostname});
  });
  set_outcome(path, emulation::column_outcome(column(dst), src), routers);
  return path;
}

}  // namespace autonet::verify::analysis
