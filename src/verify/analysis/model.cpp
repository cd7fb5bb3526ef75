#include "verify/analysis/model.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "core/hash.hpp"
#include "nidb/value.hpp"

namespace autonet::verify::analysis {

using addressing::Ipv4Addr;
using addressing::Ipv4Interface;
using addressing::Ipv4Prefix;
using emulation::BgpNeighborConfig;
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
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

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
  std::vector<RouterConfig> configs;
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
    configs.push_back(std::move(cfg));
  }
  return from_router_configs(std::move(configs));
}

Model Model::from_router_configs(std::vector<RouterConfig> configs) {
  Model model;
  model.configs_ = std::move(configs);
  std::ranges::stable_sort(model.configs_, {}, &RouterConfig::hostname);
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
//
// The state is flat. SPF results are rows indexed by router, OSPF and BGP
// prefixes are interned once per call, and BGP keeps one Adj-RIB-In vector
// and one Loc-RIB slot per (router, prefix). A write that changes an
// Adj-RIB-In entry marks its slot, and a router decides only its marked
// slots: a selection can change only where its Adj-RIB-In did, and every
// slot starts empty. Every BGP router runs in round 1, afterwards only
// those with a marked slot. Routers decide in index order and updates
// apply at once, so every round and every selection is the one that
// deciding every slot of every router in every round gives. The
// oscillation check keeps a running hash of the selections, updated per
// changed slot.
// ---------------------------------------------------------------------------

namespace {

struct Adjacency {
  std::size_t to;
  double cost;
  std::string out_interface;
  Ipv4Addr next_hop;  // peer's interface address on the shared subnet
};

/// One OSPF area: the adjacencies formed in it and the SPF result from
/// every router that has one. The area's graph falls apart into connected
/// components (IGP domains that number their areas alike); a result is a
/// dense row over its source's component, so a distance is two array reads.
class AreaSpf {
 public:
  explicit AreaSpf(std::size_t routers)
      : adj_(routers), component_(routers, kNone), local_(routers, 0), dist_(routers),
        first_hop_(routers) {}

  void connect(std::size_t from, Adjacency a) { adj_[from].push_back(std::move(a)); }

  /// Labels the components, then runs SPF from every router with an
  /// adjacency here; returns how many ran.
  std::size_t solve() {
    std::vector<std::size_t> stack;
    for (std::size_t r = 0; r < adj_.size(); ++r) {
      if (adj_[r].empty() || component_[r] != kNone) continue;
      const auto c = static_cast<std::uint32_t>(sizes_.size());
      std::uint32_t size = 0;
      component_[r] = c;
      stack.assign(1, r);
      while (!stack.empty()) {
        const std::size_t u = stack.back();
        stack.pop_back();
        local_[u] = size++;
        for (const Adjacency& a : adj_[u]) {
          if (component_[a.to] == kNone) {
            component_[a.to] = c;
            stack.push_back(a.to);
          }
        }
      }
      sizes_.push_back(size);
    }
    std::size_t runs = 0;
    for (std::size_t r = 0; r < adj_.size(); ++r) {
      if (adj_[r].empty()) continue;
      run(r);
      ++runs;
    }
    return runs;
  }

  /// Distance and first adjacency from `r` to `d` within the area:
  /// {0, nullptr} to itself, {inf, nullptr} when out of reach.
  [[nodiscard]] std::pair<double, const Adjacency*> to(std::size_t r, std::size_t d) const {
    if (r == d) return {0.0, nullptr};
    if (component_[r] == kNone || component_[r] != component_[d]) return {kInf, nullptr};
    return {dist_[r][local_[d]], first_hop_[r][local_[d]]};
  }

 private:
  void run(std::size_t src) {
    std::vector<double>& dist = dist_[src];
    std::vector<const Adjacency*>& first_hop = first_hop_[src];
    dist.assign(sizes_[component_[src]], kInf);
    first_hop.assign(dist.size(), nullptr);
    dist[local_[src]] = 0;
    // Heap ties break on the router index: the first hop kept among
    // equal-cost paths depends on it.
    using Item = std::pair<double, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    heap.emplace(0.0, src);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[local_[u]]) continue;
      for (const Adjacency& a : adj_[u]) {
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

  std::vector<std::vector<Adjacency>> adj_;  // by router
  std::vector<std::uint32_t> component_;     // by router; kNone: no adjacency here
  std::vector<std::uint32_t> local_;         // by router: position in its component
  std::vector<std::uint32_t> sizes_;         // by component
  std::vector<std::vector<double>> dist_;    // by source router, by position
  std::vector<std::vector<const Adjacency*>> first_hop_;
};

std::pair<double, const Adjacency*> intra_dist(const AreaSpf* area, std::size_t r,
                                               std::size_t d) {
  if (r == d) return {0.0, nullptr};
  if (area == nullptr) return {kInf, nullptr};
  return area->to(r, d);
}

/// Per router, the IGP distance to every router its OSPF routes reach, as
/// (router, distance) in router order: what BGP resolves next hops with.
using IgpRows = std::vector<std::vector<std::pair<std::size_t, double>>>;

/// OSPF: adjacency per area (both ends cover the subnet in the same area),
/// per-(router, area) SPF, inter-area routing through ABRs. Puts every
/// router's connected and OSPF routes in its FIB and returns the IGP
/// distances; the SPF results go with the call.
IgpRows predict_ospf(const std::vector<RouterConfig>& routers,
                     const std::vector<Segment>& segments, Prediction& out) {
  const std::size_t n = routers.size();
  std::map<std::int64_t, AreaSpf> areas;
  std::vector<std::vector<std::int64_t>> areas_of(n);  // sorted, unique
  for (const auto& segment : segments) {
    for (const auto& a : segment.members) {
      std::int64_t area_a = 0;
      if (!ospf_covers(routers[a.router], segment.subnet, &area_a)) continue;
      areas_of[a.router].push_back(area_a);
      const auto& iface_a = routers[a.router].interfaces[a.iface];
      for (const auto& b : segment.members) {
        if (a.router == b.router) continue;
        std::int64_t area_b = 0;
        if (!ospf_covers(routers[b.router], segment.subnet, &area_b)) continue;
        if (area_a != area_b) continue;  // mismatched areas: no adjacency
        const auto& iface_b = routers[b.router].interfaces[b.iface];
        areas.try_emplace(area_a, n).first->second.connect(
            a.router, {b.router, static_cast<double>(iface_a.ospf_cost), iface_a.id,
                       iface_b.address.address});
      }
    }
  }
  for (std::size_t r = 0; r < n; ++r) {
    const RouterConfig& cfg = routers[r];
    std::int64_t area = 0;
    if (cfg.loopback && ospf_covers(cfg, cfg.loopback->prefix, &area)) {
      areas_of[r].push_back(area);
    }
    std::ranges::sort(areas_of[r]);
    areas_of[r].erase(std::unique(areas_of[r].begin(), areas_of[r].end()), areas_of[r].end());
  }
  for (auto& [area, spf] : areas) out.spf_runs += spf.solve();
  const auto area_spf = [&areas](std::int64_t area) -> const AreaSpf* {
    const auto it = areas.find(area);
    return it == areas.end() ? nullptr : &it->second;
  };
  const AreaSpf* backbone = area_spf(0);

  // ABRs of an area: routers present in both the area and the backbone.
  std::map<std::int64_t, std::vector<std::size_t>> abrs;
  for (std::size_t r = 0; r < n; ++r) {
    if (!std::ranges::binary_search(areas_of[r], std::int64_t{0})) continue;
    for (const std::int64_t area : areas_of[r]) {
      if (area != 0) abrs[area].push_back(r);
    }
  }

  // Every advertised prefix: (owner, prefix, area), once per owner and area
  // on a subnet, then the covered loopbacks.
  struct Advertised {
    std::size_t owner;
    Ipv4Prefix prefix;
    std::int64_t area;
    std::uint32_t id = 0;            // OSPF prefix id
    const AreaSpf* spf = nullptr;    // the area's SPF; nullptr: no adjacency in it
    std::span<const std::size_t> abrs{};  // the area's ABRs
  };
  std::vector<Advertised> advertised;
  std::vector<std::pair<std::size_t, std::int64_t>> done;
  for (const auto& segment : segments) {
    done.clear();
    for (const auto& m : segment.members) {
      std::int64_t area = 0;
      if (!ospf_covers(routers[m.router], segment.subnet, &area)) continue;
      const std::pair<std::size_t, std::int64_t> key{m.router, area};
      if (std::ranges::find(done, key) != done.end()) continue;
      done.push_back(key);
      advertised.push_back({m.router, segment.subnet, area});
    }
  }
  for (std::size_t r = 0; r < n; ++r) {
    const RouterConfig& cfg = routers[r];
    std::int64_t area = 0;
    if (cfg.loopback && ospf_covers(cfg, cfg.loopback->prefix, &area)) {
      advertised.push_back({r, cfg.loopback->prefix, area});
    }
  }

  // Prefix ids in prefix order: the FIB's OSPF order.
  std::vector<Ipv4Prefix> prefixes;
  prefixes.reserve(advertised.size());
  for (const Advertised& adv : advertised) prefixes.push_back(adv.prefix);
  std::ranges::sort(prefixes);
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());
  const auto id_of = [&prefixes](const Ipv4Prefix& prefix) {
    const auto it = std::ranges::lower_bound(prefixes, prefix);
    return it != prefixes.end() && *it == prefix
               ? static_cast<std::uint32_t>(it - prefixes.begin())
               : kNone;
  };
  for (Advertised& adv : advertised) {
    adv.id = id_of(adv.prefix);
    adv.spf = area_spf(adv.area);
    if (const auto it = abrs.find(adv.area); it != abrs.end()) adv.abrs = it->second;
  }
  // Per destination router, the ids of its loopback and interface prefixes
  // for its IGP distance. A prefix nobody advertises, such as a failed
  // subnet's, has no id.
  std::vector<std::uint32_t> loopback_id(n, kNone);
  std::vector<std::vector<std::uint32_t>> interface_ids(n);
  for (std::size_t d = 0; d < n; ++d) {
    const RouterConfig& dc = routers[d];
    if (dc.loopback) loopback_id[d] = id_of(dc.loopback->prefix);
    for (const auto& iface : dc.interfaces) {
      if (const std::uint32_t id = id_of(iface.address.prefix); id != kNone) {
        interface_ids[d].push_back(id);
      }
    }
  }

  // Best OSPF candidate per prefix id (intra-area beats inter-area), reset
  // after each router through the ids holding one.
  struct Candidate {
    bool intra = false;
    double metric = kInf;
    const Adjacency* hop = nullptr;
  };
  std::vector<Candidate> best(prefixes.size());
  std::vector<std::uint32_t> offered;
  const auto offer = [&best, &offered](std::uint32_t id, bool intra, double metric,
                                       const Adjacency* hop) {
    if (metric == kInf || hop == nullptr) return;
    Candidate& cur = best[id];
    if (cur.hop == nullptr) offered.push_back(id);
    if ((intra && !cur.intra) || (intra == cur.intra && metric < cur.metric)) {
      cur = {intra, metric, hop};
    }
  };

  IgpRows igp(n);
  for (std::size_t r = 0; r < n; ++r) {
    auto& fib = out.fibs[r];
    const RouterConfig& cfg = routers[r];
    for (const auto& iface : cfg.interfaces) {
      fib.push_back(FibEntry{iface.address.prefix, RouteSource::kConnected, iface.id,
                             std::nullopt, 0});
    }
    if (cfg.loopback) {
      fib.push_back(FibEntry{cfg.loopback->prefix, RouteSource::kConnected, "",
                             std::nullopt, 0});
    }
    if (!cfg.ospf_enabled) continue;
    const std::vector<std::int64_t>& mine = areas_of[r];
    const bool in_backbone = std::ranges::binary_search(mine, std::int64_t{0});

    for (const Advertised& adv : advertised) {
      if (adv.owner == r) continue;
      if (std::ranges::binary_search(mine, adv.area)) {
        const auto [dist, hop] = intra_dist(adv.spf, r, adv.owner);
        offer(adv.id, true, dist, hop);
      }
      // Inter-area, via the backbone: from area 0 to one of the prefix
      // area's ABRs, or first to one of our own area's ABRs.
      if (adv.area == 0 && in_backbone) continue;
      const std::span<const std::size_t> target_abrs =
          adv.area == 0 ? std::span<const std::size_t>(&adv.owner, 1) : adv.abrs;
      for (const std::size_t abr_b : target_abrs) {
        const double remote =
            abr_b == adv.owner ? 0.0 : intra_dist(adv.spf, abr_b, adv.owner).first;
        if (remote == kInf) continue;
        if (in_backbone) {
          const auto [d0, hop] = intra_dist(backbone, r, abr_b);
          offer(adv.id, false, d0 + remote, hop);
          continue;
        }
        for (const std::int64_t area : mine) {
          const auto own_abrs = abrs.find(area);
          if (own_abrs == abrs.end()) continue;
          for (const std::size_t abr_a : own_abrs->second) {
            const double via =
                abr_a == abr_b ? 0.0 : intra_dist(backbone, abr_a, abr_b).first;
            if (via == kInf) continue;
            const auto [da, hop] = intra_dist(area_spf(area), r, abr_a);
            offer(adv.id, false, da + via + remote, hop);
          }
        }
      }
    }

    std::ranges::sort(offered);
    for (const std::uint32_t id : offered) {
      const Ipv4Prefix& prefix = prefixes[id];
      const bool connected =
          (cfg.loopback && cfg.loopback->prefix == prefix) ||
          std::ranges::any_of(cfg.interfaces, [&prefix](const InterfaceConfig& iface) {
            return iface.address.prefix == prefix;
          });
      if (connected) continue;
      const Candidate& cand = best[id];
      fib.push_back(FibEntry{prefix, RouteSource::kOspf, cand.hop->out_interface,
                             cand.hop->next_hop, cand.metric});
    }
    // IGP distance to a router: its loopback's route, else the nearest of
    // its interface prefixes.
    for (std::size_t d = 0; d < n; ++d) {
      if (d == r) continue;
      double metric = kInf;
      if (loopback_id[d] != kNone && best[loopback_id[d]].hop != nullptr) {
        metric = best[loopback_id[d]].metric;
      } else {
        for (const std::uint32_t id : interface_ids[d]) {
          if (best[id].hop != nullptr) metric = std::min(metric, best[id].metric);
        }
      }
      if (metric != kInf) igp[r].emplace_back(d, metric);
    }
    for (const std::uint32_t id : offered) best[id] = {};
    offered.clear();
  }
  return igp;
}

/// A BGP route as a router holds it (attributes after ingress policy). The
/// prefix is that of the slot holding it.
struct Route {
  std::vector<std::int64_t> as_path;
  Ipv4Addr next_hop;
  std::int64_t local_pref = 100;
  std::int64_t med = 0;
  std::int64_t weight = 0;  // 32768 for a locally originated route
  bool ebgp_learned = false;  // session type at the holder
  bool local_originated = false;
  Ipv4Addr originator_id;
  std::vector<Ipv4Addr> cluster_list;
  Ipv4Addr from_peer;  // session address it arrived over

  friend bool operator==(const Route&, const Route&) = default;
};

/// An Adj-RIB-In entry: the route, the advertiser's session address it
/// arrived over (0 for a route originated here), and what the receiver
/// resolved for its next hop when the entry was written.
struct RibEntry {
  std::uint32_t from = 0;
  bool resolvable = true;
  double igp_metric = 0;  // the receiver's IGP metric to the next hop
  Route route;
};

/// One (router, prefix) slot's term of the running state hash: FNV-1a over
/// the slot and the route's AS path, next hop, arrival session and
/// local-pref, the fields that tell one selection state from another. Two
/// states hash alike when their selections agree on them, as the revisit
/// rounds of Bad Gadget and MED churn require.
std::uint64_t state_term(std::size_t router, std::size_t prefix, const Route& route) {
  std::uint64_t h = kFnvOffsetBasis;
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= kFnvPrime;
    }
  };
  fold(router);
  fold(prefix);
  fold(route.as_path.size());
  for (const std::int64_t as : route.as_path) fold(static_cast<std::uint64_t>(as));
  fold(route.next_hop.value());
  fold(route.from_peer.value());
  fold(static_cast<std::uint64_t>(route.local_pref));
  return h;
}

/// BGP: sessions, propagation rounds, decision process, install. Appends
/// every router's BGP routes to its FIB.
void predict_bgp(const Model& model, const std::set<Ipv4Prefix>& failed_subnets,
                 const IgpRows& igp, std::size_t max_rounds, Prediction& out) {
  const std::vector<RouterConfig>& routers = model.routers();
  const std::map<std::uint32_t, std::size_t>& by_address = model.by_address();
  const std::size_t n = routers.size();
  const auto igp_metric_to = [&](std::size_t r, Ipv4Addr addr) -> double {
    const auto owner = by_address.find(addr.value());
    if (owner == by_address.end()) return kInf;
    if (owner->second == r) return 0.0;
    const auto& row = igp[r];
    const auto it = std::ranges::lower_bound(row, owner->second, {},
                                             &std::pair<std::size_t, double>::first);
    return it != row.end() && it->first == owner->second ? it->second : kInf;
  };

  // --- Sessions: both ends configured for each other, and reachable.
  std::vector<BgpSession> sessions;
  for (std::size_t r = 0; r < n; ++r) {
    const RouterConfig& cfg = routers[r];
    if (!cfg.bgp_enabled) continue;
    for (const auto& neighbor : cfg.bgp_neighbors) {
      const auto owner = by_address.find(neighbor.neighbor.value());
      if (owner == by_address.end()) continue;
      const std::size_t peer = owner->second;
      if (peer == r) continue;
      const RouterConfig& pc = routers[peer];
      if (!pc.bgp_enabled) continue;
      const bool matched = std::ranges::any_of(pc.bgp_neighbors, [&](const auto& pn) {
        return owns_address(cfg, pn.neighbor) && pn.remote_as == cfg.asn &&
               neighbor.remote_as == pc.asn;
      });
      if (!matched) continue;
      BgpSession s;
      s.local = r;
      s.peer = peer;
      s.peer_addr = neighbor.neighbor;
      s.local_addr = session_source(cfg, neighbor.neighbor, neighbor.update_source_loopback);
      s.ebgp = cfg.asn != pc.asn;
      s.peer_is_client = neighbor.rr_client;
      s.next_hop_self = neighbor.next_hop_self;
      s.only_local_out = neighbor.only_local_out;
      s.med_out = neighbor.med_out;
      const bool reachable =
          std::ranges::any_of(cfg.interfaces,
                              [&](const InterfaceConfig& iface) {
                                return iface.address.prefix.contains(neighbor.neighbor) &&
                                       !failed_subnets.contains(iface.address.prefix);
                              }) ||
          igp_metric_to(r, neighbor.neighbor) != kInf;
      if (!reachable) continue;
      sessions.push_back(s);
    }
  }
  out.bgp_sessions = sessions.size();
  std::vector<std::vector<std::size_t>> sessions_of(n);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    sessions_of[sessions[i].local].push_back(i);
  }

  // What the rounds would otherwise recompute per route: router ids, and
  // per session the receiver's ingress local-pref for the advertiser's
  // address (its last such statement; 100 without one) and the
  // advertiser's next-hop-self address.
  std::vector<Ipv4Addr> ids(n);
  for (std::size_t r = 0; r < n; ++r) ids[r] = router_id(routers[r]);
  std::vector<std::int64_t> session_pref(sessions.size(), 100);
  std::vector<Ipv4Addr> session_nh_self(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const BgpSession& s = sessions[i];
    for (const auto& nb : routers[s.peer].bgp_neighbors) {
      if (nb.local_pref_in > 0 && nb.neighbor == s.local_addr) {
        session_pref[i] = nb.local_pref_in;
      }
    }
    session_nh_self[i] = session_source(routers[s.local], s.peer_addr, true);
  }

  // --- Prefixes, interned in text order: the FIB's BGP order.
  std::vector<std::pair<std::string, Ipv4Prefix>> prefixes;
  for (const RouterConfig& cfg : routers) {
    for (const Ipv4Prefix& prefix : cfg.bgp_networks) {
      prefixes.emplace_back(prefix.to_string(), prefix);
    }
  }
  std::ranges::sort(prefixes);
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());
  const std::size_t np = prefixes.size();

  // --- Slots: Adj-RIB-In entries sorted by session address, the Loc-RIB
  // selection, and the dirty mark of each (router, prefix).
  std::vector<std::vector<RibEntry>> rib_in(n * np);
  std::vector<std::optional<Route>> best(n * np);
  std::vector<std::uint8_t> dirty(n * np, 0);
  std::vector<std::size_t> dirty_count(n, 0);
  const auto mark = [&](std::size_t r, std::size_t slot) {
    if (dirty[slot] == 0) {
      dirty[slot] = 1;
      ++dirty_count[r];
    }
  };
  // Resolves an entry's next hop at its receiver: self, connected or
  // IGP-known.
  const auto resolve = [&](std::size_t r, RibEntry& e) {
    const Ipv4Addr nh = e.route.next_hop;
    e.igp_metric = igp_metric_to(r, nh);
    e.resolvable = e.route.local_originated || owns_address(routers[r], nh) ||
                   std::ranges::any_of(routers[r].interfaces,
                                       [nh](const InterfaceConfig& iface) {
                                         return iface.address.prefix.contains(nh);
                                       }) ||
                   e.igp_metric != kInf;
  };
  const auto write = [&](std::size_t r, std::size_t k, std::uint32_t from, const Route& route) {
    const std::size_t slot = r * np + k;
    std::vector<RibEntry>& list = rib_in[slot];
    auto it = std::ranges::lower_bound(list, from, {}, &RibEntry::from);
    if (it != list.end() && it->from == from) {
      if (it->route == route) return;
      const bool moved = it->route.next_hop != route.next_hop ||
                         it->route.local_originated != route.local_originated;
      it->route = route;
      if (moved) resolve(r, *it);
    } else {
      it = list.insert(it, RibEntry{.from = from, .route = route});
      resolve(r, *it);
    }
    mark(r, slot);
  };
  const auto erase = [&](std::size_t r, std::size_t k, std::uint32_t from) {
    const std::size_t slot = r * np + k;
    std::vector<RibEntry>& list = rib_in[slot];
    const auto it = std::ranges::lower_bound(list, from, {}, &RibEntry::from);
    if (it == list.end() || it->from != from) return;
    list.erase(it);
    mark(r, slot);
  };

  for (std::size_t r = 0; r < n; ++r) {
    for (const Ipv4Prefix& prefix : routers[r].bgp_networks) {
      Route route;
      route.next_hop = ids[r];
      route.weight = 32768;
      route.local_originated = true;
      route.originator_id = ids[r];
      const auto k = std::ranges::lower_bound(prefixes, prefix.to_string(), {},
                                              &std::pair<std::string, Ipv4Prefix>::first);
      write(r, static_cast<std::size_t>(k - prefixes.begin()), 0, route);
    }
  }

  const auto better = [&routers](std::size_t r, const RibEntry& x, const RibEntry& y) {
    const Route& a = x.route;
    const Route& b = y.route;
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.local_pref != b.local_pref) return a.local_pref > b.local_pref;
    if (a.as_path.size() != b.as_path.size()) return a.as_path.size() < b.as_path.size();
    if (!a.as_path.empty() && !b.as_path.empty() && a.as_path.front() == b.as_path.front() &&
        a.med != b.med) {
      return a.med < b.med;
    }
    if (a.ebgp_learned != b.ebgp_learned) return a.ebgp_learned;
    if (routers[r].igp_tiebreak && x.igp_metric != y.igp_metric) {
      return x.igp_metric < y.igp_metric;
    }
    if (a.originator_id != b.originator_id) return a.originator_id < b.originator_id;
    return a.from_peer < b.from_peer;
  };

  // Advertises router r's selection for prefix k over each of its
  // sessions, or withdraws it where policy or loop prevention forbids.
  Route adv;  // the advertisement; its buffers are reused
  const auto advertise = [&](std::size_t r, std::size_t k, const Route& route) {
    std::optional<bool> from_client;
    for (const std::size_t si : sessions_of[r]) {
      const BgpSession& s = sessions[si];
      const std::uint32_t key = s.local_addr.value();
      if (!route.local_originated && route.from_peer == s.peer_addr) {
        erase(s.peer, k, key);
        continue;
      }
      if (s.only_local_out && !route.local_originated) {
        erase(s.peer, k, key);
        continue;
      }
      bool advertised = false;
      adv = route;
      adv.from_peer = s.local_addr;
      adv.weight = 0;
      adv.local_originated = false;
      if (s.ebgp) {
        advertised = true;
        adv.as_path.insert(adv.as_path.begin(), routers[r].asn);
        adv.next_hop = s.local_addr;
        adv.local_pref = session_pref[si];
        adv.med = s.med_out >= 0 ? s.med_out : 0;
        adv.originator_id = Ipv4Addr{};
        adv.cluster_list.clear();
        adv.ebgp_learned = true;
      } else {
        adv.ebgp_learned = false;
        if (route.local_originated || route.ebgp_learned) {
          advertised = true;
          if (s.next_hop_self || route.local_originated) adv.next_hop = session_nh_self[si];
          adv.originator_id = ids[r];
        } else {
          if (!from_client) {
            from_client = false;
            for (const std::size_t lj : sessions_of[r]) {
              if (sessions[lj].peer_addr == route.from_peer) {
                from_client = sessions[lj].peer_is_client;
                break;
              }
            }
          }
          advertised = *from_client || s.peer_is_client;
          if (advertised) adv.cluster_list.push_back(ids[r]);
        }
      }
      const bool drop =
          !advertised ||
          (s.ebgp ? std::ranges::find(adv.as_path, routers[s.peer].asn) != adv.as_path.end()
                  : adv.originator_id == ids[s.peer] ||
                        std::ranges::find(adv.cluster_list, ids[s.peer]) !=
                            adv.cluster_list.end());
      if (drop) {
        erase(s.peer, k, key);
      } else {
        write(s.peer, k, key, adv);
      }
    }
  };

  std::map<std::uint64_t, std::size_t> seen_states;  // state hash -> round
  std::uint64_t state = 0;
  for (std::size_t round = 1; round <= max_rounds; ++round) {
    bool changed = false;
    for (std::size_t r = 0; r < n; ++r) {
      if (!routers[r].bgp_enabled) continue;
      if (round > 1 && dirty_count[r] == 0) continue;
      ++out.decision_reruns;
      for (std::size_t k = 0; k < np; ++k) {
        const std::size_t slot = r * np + k;
        if (dirty[slot] == 0) continue;
        dirty[slot] = 0;
        --dirty_count[r];
        const RibEntry* chosen = nullptr;
        for (const RibEntry& e : rib_in[slot]) {
          if (e.resolvable && (chosen == nullptr || better(r, e, *chosen))) chosen = &e;
        }
        std::optional<Route>& selected = best[slot];
        if (chosen == nullptr) {
          if (!selected) continue;
          for (const std::size_t si : sessions_of[r]) {
            erase(sessions[si].peer, k, sessions[si].local_addr.value());
          }
          state -= state_term(r, k, *selected);
          selected.reset();
        } else {
          if (selected && *selected == chosen->route) continue;
          advertise(r, k, chosen->route);
          if (selected) state -= state_term(r, k, *selected);
          state += state_term(r, k, chosen->route);
          selected = chosen->route;
        }
        changed = true;
      }
    }
    out.bgp_rounds = round;
    if (!changed) {
      out.bgp_converged = true;
      break;
    }
    if (!seen_states.emplace(state, round).second) {
      out.bgp_oscillating = true;
      break;
    }
  }

  // Install: resolve each selected route's next hop (directly connected
  // or recursively via a non-BGP route) and add the FIB entry.
  for (std::size_t r = 0; r < n; ++r) {
    auto& fib = out.fibs[r];
    for (std::size_t k = 0; k < np; ++k) {
      const std::optional<Route>& route = best[r * np + k];
      if (!route || route->local_originated) continue;
      std::string out_interface;
      std::optional<Ipv4Addr> immediate;
      bool resolved = false;
      for (const auto& iface : routers[r].interfaces) {
        if (iface.address.prefix.contains(route->next_hop)) {
          out_interface = iface.id;
          immediate = route->next_hop;
          resolved = true;
          break;
        }
      }
      if (!resolved) {
        const FibEntry* via = lookup(fib, route->next_hop);
        if (via != nullptr && via->source != RouteSource::kEbgp &&
            via->source != RouteSource::kIbgp) {
          out_interface = via->out_interface;
          immediate = via->next_hop ? via->next_hop : route->next_hop;
          resolved = true;
        }
      }
      if (!resolved) continue;
      fib.push_back(FibEntry{prefixes[k].second,
                             route->ebgp_learned ? RouteSource::kEbgp : RouteSource::kIbgp,
                             out_interface, immediate,
                             static_cast<double>(route->as_path.size())});
    }
  }
}

}  // namespace

Prediction predict(const Model& model, const std::set<Ipv4Prefix>& failed_subnets,
                   std::size_t max_bgp_rounds) {
  Prediction out;
  out.fibs.assign(model.size(), {});
  const IgpRows igp =
      predict_ospf(model.routers(), build_segments(model.routers(), failed_subnets), out);
  predict_bgp(model, failed_subnets, igp, max_bgp_rounds, out);
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
