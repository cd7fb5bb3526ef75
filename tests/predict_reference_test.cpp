// The predictor against its predecessor. reference_predict() below is
// predict() as it was before its state went flat (interned prefixes,
// index-addressed SPF results, RIBs and Loc-RIB slots, dirty-set decision
// reruns and a running state hash): std::map SPF results and candidate
// tables, string-keyed RIBs, every BGP router's decision rerun every
// round, the state fingerprinted as one string per round. Both run on
// the same models, intact and with each single link failed; they must
// agree on every FIB entry, field by field and in order, and on the
// BGP round count, convergence, oscillation, session count and SPF runs,
// and predict() may not rerun more decisions than the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/workflow.hpp"
#include "covered_next_hop.hpp"
#include "emulation/network.hpp"
#include "emulation/router.hpp"
#include "fuzz/scenario.hpp"
#include "partial_ibgp_mesh.hpp"
#include "reflected_next_hop.hpp"
#include "topology/builtin.hpp"
#include "topology/generators.hpp"
#include "verify/analysis/model.hpp"

namespace {

using namespace autonet;
using addressing::Ipv4Addr;
using addressing::Ipv4Prefix;
using emulation::BgpRoute;
using emulation::BgpSession;
using emulation::FibEntry;
using emulation::lookup;
using emulation::ospf_covers;
using emulation::owns_address;
using emulation::RouteSource;
using emulation::router_id;
using emulation::RouterConfig;
using emulation::Segment;
using emulation::SegmentMember;
using emulation::session_source;
using verify::analysis::Model;
using verify::analysis::Prediction;

constexpr double kInf = std::numeric_limits<double>::infinity();

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

Prediction reference_predict(const Model& model, const std::set<Ipv4Prefix>& failed_subnets,
                              std::size_t max_bgp_rounds) {
  const std::vector<RouterConfig>& routers = model.routers();
  const std::size_t n = routers.size();
  Prediction out;
  out.fibs.assign(n, {});
  std::vector<std::map<std::size_t, double>> igp_dist(n);

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
      if (metric != kInf) igp_dist[r][d] = metric;
    }
  }

  // --- BGP: sessions, propagation rounds, decision process, install.
  auto igp_metric_to = [&](std::size_t r, Ipv4Addr addr) -> double {
    auto owner = model.by_address().find(addr.value());
    if (owner == model.by_address().end()) return kInf;
    if (owner->second == r) return 0.0;
    const auto& dist = igp_dist[r];
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
      ++out.decision_reruns;
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

std::string entry_text(const FibEntry& e) {
  char metric[32];
  std::snprintf(metric, sizeof metric, "%.17g", e.metric);
  return e.prefix.to_string() + " source " + std::to_string(static_cast<int>(e.source)) +
         " via '" + e.out_interface + "' " +
         (e.next_hop ? e.next_hop->to_string() : std::string("on-link")) + " metric " + metric;
}

/// The first FIB entry, compared field by field and in order, where the
/// two predictions differ; "" when every entry agrees.
std::string fib_difference(const Model& model, const Prediction& got, const Prediction& want) {
  if (got.fibs.size() != want.fibs.size()) {
    return "FIB count " + std::to_string(got.fibs.size()) + ", reference " +
           std::to_string(want.fibs.size());
  }
  for (std::size_t r = 0; r < got.fibs.size(); ++r) {
    const std::vector<FibEntry>& a = got.fibs[r];
    const std::vector<FibEntry>& b = want.fibs[r];
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
      const bool same = i < a.size() && i < b.size() && a[i].prefix == b[i].prefix &&
                        a[i].source == b[i].source &&
                        a[i].out_interface == b[i].out_interface &&
                        a[i].next_hop == b[i].next_hop && a[i].metric == b[i].metric;
      if (same) continue;
      return model.routers()[r].hostname + " entry " + std::to_string(i) + ": " +
             (i < a.size() ? entry_text(a[i]) : std::string("none")) + ", reference " +
             (i < b.size() ? entry_text(b[i]) : std::string("none"));
    }
  }
  return "";
}

/// Predicts `model` with `failed` down at round budget `k` through both
/// predictors and compares every Prediction field.
void expect_same(const Model& model, const std::set<Ipv4Prefix>& failed, std::size_t k,
                 const std::string& label) {
  SCOPED_TRACE(label);
  const Prediction got = verify::analysis::predict(model, failed, k);
  const Prediction want = reference_predict(model, failed, k);
  EXPECT_EQ(fib_difference(model, got, want), "");
  EXPECT_EQ(got.bgp_rounds, want.bgp_rounds);
  EXPECT_EQ(got.bgp_converged, want.bgp_converged);
  EXPECT_EQ(got.bgp_oscillating, want.bgp_oscillating);
  EXPECT_EQ(got.bgp_sessions, want.bgp_sessions);
  EXPECT_EQ(got.spf_runs, want.spf_runs);
  EXPECT_LE(got.decision_reruns, want.decision_reruns);
}

/// expect_same at each budget, intact and with each link failed in turn.
void expect_same_under_failures(const Model& model, const std::vector<std::size_t>& budgets,
                                const std::string& label) {
  std::vector<std::set<Ipv4Prefix>> scenarios{{}};
  for (const auto& link : model.links()) scenarios.push_back({link.subnet});
  for (const std::size_t k : budgets) {
    for (const auto& failed : scenarios) {
      expect_same(model, failed, k,
                  label + " k=" + std::to_string(k) + " " +
                      (failed.empty() ? std::string("intact")
                                      : failed.begin()->to_string() + " down"));
    }
  }
}

Model model_of(const graph::Graph& input, const std::string& platform,
               const std::string& ibgp) {
  core::WorkflowOptions opts;
  opts.platform = platform;
  opts.ibgp = ibgp;
  opts.lint.fail_fast = false;
  core::Workflow wf(opts);
  wf.load(input).design().compile();
  return Model::from_nidb(wf.nidb());
}

/// 40 seeded fuzz scenarios (up to 20 routers) on one platform, in both
/// iBGP modes.
void check_scenarios(const std::string& platform) {
  for (const std::string ibgp : {"mesh", "rr"}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      const fuzz::Scenario s = fuzz::generate_scenario(seed, 20);
      expect_same_under_failures(model_of(s.graph, platform, ibgp), {128},
                                 platform + "/" + ibgp + " seed " + std::to_string(seed) +
                                     " (" + s.summary + ")");
    }
  }
}

TEST(PredictReference, FuzzScenariosNetkit) { check_scenarios("netkit"); }
TEST(PredictReference, FuzzScenariosDynagen) { check_scenarios("dynagen"); }
TEST(PredictReference, FuzzScenariosJunosphere) { check_scenarios("junosphere"); }
TEST(PredictReference, FuzzScenariosCbgp) { check_scenarios("cbgp"); }

/// Bad Gadget and MED churn oscillate on some platforms, so every round
/// budget up to their periods gives a different partial state.
TEST(PredictReference, Nren) {
  // The 1158-router model (seed 2013), intact and with one inter-AS link
  // down, drawn with a fixed seed: the reference at the scale the
  // predictor is timed at.
  const Model model = model_of(topology::make_nren_model(), "netkit", "mesh");
  ASSERT_EQ(model.size(), 1158u);
  std::vector<Ipv4Prefix> inter_as;
  for (const auto& link : model.links()) {
    if (model.router(link.a)->asn != model.router(link.b)->asn) inter_as.push_back(link.subnet);
  }
  ASSERT_FALSE(inter_as.empty());
  std::mt19937_64 rng(2013);
  const Ipv4Prefix down = inter_as[rng() % inter_as.size()];
  expect_same(model, {}, 128, "nren intact");
  expect_same(model, {down}, 128, "nren " + down.to_string() + " down");
}

TEST(PredictReference, BuiltinsOnEveryPlatformBudgetAndFailure) {
  const std::vector<std::size_t> budgets{1, 2, 3, 4, 5, 6, 7, 8, 128};
  for (const char* platform : {"netkit", "dynagen", "junosphere", "cbgp"}) {
    expect_same_under_failures(model_of(topology::bad_gadget(), platform, "rr"), budgets,
                               std::string(platform) + " bad-gadget");
    expect_same_under_failures(model_of(topology::med_oscillation(), platform, "rr"),
                               budgets, std::string(platform) + " med-oscillation");
    expect_same_under_failures(model_of(topology::small_internet(), platform, "rr"), budgets,
                               std::string(platform) + " small-internet");
  }
}

using fixtures::link;
using fixtures::neighbor;
using fixtures::router;

/// No router has a loopback, so an IGP distance to a router falls back to
/// the nearest of its interface prefixes. AS 1 is the OSPF ring
/// a-b-c-e-a (a-e costs 5); AS 2's d originates 198.51.100.0/24 to c and
/// e, which pass it to a over iBGP sessions between interface addresses,
/// next hop self. a picks between them on those IGP distances: c while
/// b-c (10.1.0.0/30) is up, e, on the router-id tie-break, once it is
/// down, because c's failed interface prefix no longer counts.
std::vector<RouterConfig> loopbackless_ring() {
  RouterConfig a = router("a", 1);
  RouterConfig b = router("b", 1, false);
  RouterConfig c = router("c", 1);
  RouterConfig e = router("e", 1);
  RouterConfig d = router("d", 2);
  link(b, c, 0, 1, true);   // b 10.1.0.1, c 10.1.0.2
  link(a, b, 1, 1, true);   // a 10.1.0.5, b 10.1.0.6
  link(c, e, 2, 1, true);   // c 10.1.0.9, e 10.1.0.10
  link(e, a, 3, 5, true);   // e 10.1.0.13, a 10.1.0.14
  link(e, d, 4, 1, false);  // e 10.1.0.17, d 10.1.0.18
  link(c, d, 5, 1, false);  // c 10.1.0.21, d 10.1.0.22
  neighbor(a, "10.1.0.2", 1);
  neighbor(a, "10.1.0.10", 1);
  neighbor(c, "10.1.0.5", 1).next_hop_self = true;
  neighbor(c, "10.1.0.22", 2);
  neighbor(e, "10.1.0.5", 1).next_hop_self = true;
  neighbor(e, "10.1.0.18", 2);
  neighbor(d, "10.1.0.21", 1);
  neighbor(d, "10.1.0.17", 1);
  d.bgp_networks.push_back(*Ipv4Prefix::parse("198.51.100.0/24"));
  return {a, b, c, d, e};
}

TEST(PredictReference, LoopbacklessRoutersResolveThroughInterfacePrefixes) {
  const Model model = Model::from_router_configs(loopbackless_ring());
  expect_same_under_failures(model, {128}, "loopback-less ring");
  const Ipv4Prefix prefix = *Ipv4Prefix::parse("198.51.100.0/24");
  const auto via = [&](const std::set<Ipv4Prefix>& failed) -> std::string {
    const Prediction prediction = verify::analysis::predict(model, failed);
    for (const FibEntry& e : prediction.fibs[*model.index_of("a")]) {
      if (e.prefix == prefix && e.next_hop) return e.next_hop->to_string();
    }
    return "none";
  };
  EXPECT_EQ(via({}), "10.1.0.6");  // towards c, through b
  EXPECT_EQ(via({*Ipv4Prefix::parse("10.1.0.0/30")}), "10.1.0.13");  // straight to e
}

TEST(PredictReference, ReflectedNextHopMovesAndResolvesAgain) {
  // The reflected next hop moves (reflected_next_hop.hpp).
  const Model model = Model::from_router_configs(fixtures::reflected_next_hop_moves());
  expect_same_under_failures(model, {1, 2, 3, 128}, "reflected next hop");
  const Prediction prediction = verify::analysis::predict(model);
  const Ipv4Prefix prefix = *Ipv4Prefix::parse("198.51.100.0/24");
  const auto& fib = prediction.fibs[*model.index_of("a")];
  const auto route = std::ranges::find(fib, prefix, &FibEntry::prefix);
  ASSERT_NE(route, fib.end());
  EXPECT_EQ(route->source, RouteSource::kIbgp);
  EXPECT_EQ(route->next_hop, Ipv4Addr::parse("10.1.0.2"));
}

TEST(PredictReference, CoveredNextHopStaysOut) {
  // a's third route has the next hop its first resolved, now covered by
  // its second, a BGP /25 (covered_next_hop.hpp).
  const std::vector<RouterConfig> configs = fixtures::covered_next_hop();
  const Model model = Model::from_router_configs(configs);
  expect_same_under_failures(model, {128}, "covered next hop");
  const Prediction prediction = verify::analysis::predict(model);
  const auto& fib = prediction.fibs[*model.index_of("a")];
  const auto source_of = [&fib](const char* prefix) -> std::string {
    const auto route = std::ranges::find(fib, *Ipv4Prefix::parse(prefix), &FibEntry::prefix);
    return route == fib.end() ? "none" : std::to_string(static_cast<int>(route->source));
  };
  EXPECT_EQ(source_of("10.2.0.0/24"), std::to_string(static_cast<int>(RouteSource::kOspf)));
  EXPECT_EQ(source_of("10.0.64.0/24"), std::to_string(static_cast<int>(RouteSource::kIbgp)));
  EXPECT_EQ(source_of("10.2.0.0/25"), std::to_string(static_cast<int>(RouteSource::kEbgp)));
  EXPECT_EQ(source_of("198.51.100.0/24"), "none");
  // The emulation, booted from the same configs, installs the same FIBs.
  auto network = emulation::EmulatedNetwork::from_router_configs(configs);
  EXPECT_TRUE(network.start().converged);
  for (std::size_t r = 0; r < model.size(); ++r) {
    const std::string& name = model.routers()[r].hostname;
    const std::vector<FibEntry>& emulated = network.router(name)->fib();
    const std::vector<FibEntry>& predicted = prediction.fibs[r];
    ASSERT_EQ(emulated.size(), predicted.size()) << name;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      EXPECT_EQ(entry_text(emulated[i]), entry_text(predicted[i])) << name << " entry " << i;
    }
  }
}

TEST(PredictReference, PartialIbgpMeshWithdraws) {
  // y loses its only route to 192.0.2.0/24 (partial_ibgp_mesh.hpp): the
  // one input that covers the predictor's withdraw path.
  const std::vector<RouterConfig> configs = fixtures::partial_ibgp_mesh();
  const Model model = Model::from_router_configs(configs);
  expect_same(model, {}, 128, "partial iBGP mesh");
  const Prediction prediction = verify::analysis::predict(model);
  EXPECT_TRUE(prediction.bgp_converged);
  const Ipv4Prefix withdrawn = *Ipv4Prefix::parse("192.0.2.0/24");
  const auto holds = [&withdrawn](const std::vector<FibEntry>& fib) {
    return std::ranges::any_of(fib, [&](const FibEntry& e) { return e.prefix == withdrawn; });
  };
  const auto routes = [&](std::string_view router) {
    return holds(prediction.fibs[*model.index_of(router)]);
  };
  EXPECT_TRUE(routes("x"));
  EXPECT_TRUE(routes("y2"));
  EXPECT_FALSE(routes("y"));
  // The emulation, booted from the same configs, ends the same way.
  auto network = emulation::EmulatedNetwork::from_router_configs(configs);
  EXPECT_TRUE(network.start().converged);
  EXPECT_FALSE(holds(network.router("y")->fib()));
  EXPECT_TRUE(holds(network.router("y2")->fib()));
}

}  // namespace
