#include "emulation/network.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace autonet::emulation {

using addressing::Ipv4Addr;
using addressing::Ipv4Prefix;

EmulatedNetwork EmulatedNetwork::from_nidb(const nidb::Nidb& nidb,
                                           const render::ConfigTree& configs,
                                           const std::set<std::string>* only) {
  std::vector<RouterConfig> parsed;
  for (const auto* rec : nidb.devices()) {
    const nidb::Value* type = rec->data.find("device_type");
    const std::string* type_s = type ? type->as_string() : nullptr;
    if (type_s == nullptr || *type_s != "router") continue;
    if (only != nullptr && !only->contains(rec->name)) continue;

    const nidb::Value* syntax = rec->data.find("syntax");
    const std::string* syntax_s = syntax ? syntax->as_string() : nullptr;
    const std::string dir = rec->dst_folder();
    if (syntax_s == nullptr) continue;
    if (*syntax_s == "quagga") {
      parsed.push_back(parse_quagga_device(configs, dir, rec->name));
    } else if (*syntax_s == "ios") {
      const std::string* text = configs.get(dir + "/startup-config.cfg");
      if (text == nullptr) throw ConfigError("missing IOS config for " + rec->name);
      parsed.push_back(parse_ios_config(*text));
    } else if (*syntax_s == "junos") {
      const std::string* text = configs.get(dir + "/juniper.conf");
      if (text == nullptr) throw ConfigError("missing Junos config for " + rec->name);
      parsed.push_back(parse_junos_config(*text));
    } else if (*syntax_s == "cbgp") {
      // handled network-wide below
    }
  }

  // A C-BGP platform renders one network-wide script.
  if (const std::string* script = configs.get("network.cli")) {
    CbgpNetwork net = parse_cbgp_script(*script);
    EmulatedNetwork out = from_router_configs(std::move(net.routers));
    out.explicit_links_ = std::move(net.links);
    // Map the address-named routers back to device names via the NIDB.
    for (auto& r : out.routers_) {
      // hostnames are loopback addresses in cbgp mode; try to resolve.
      if (auto owner = nidb.device_for_ip(r.name())) {
        out.by_name_.erase(r.name());
        r.rename(*owner);
        out.by_name_[*owner] = static_cast<std::size_t>(&r - out.routers_.data());
      }
    }
    return out;
  }
  return from_router_configs(std::move(parsed));
}

EmulatedNetwork EmulatedNetwork::from_netkit_tree(const render::ConfigTree& configs,
                                                  const std::string& host) {
  // Device directories are the parents of ".startup" files under
  // <host>/netkit/.
  const std::string prefix = host + "/netkit/";
  std::vector<RouterConfig> parsed;
  for (const auto& path : configs.paths_under(prefix)) {
    if (!path.ends_with("/.startup")) continue;
    std::string dir = path.substr(0, path.size() - std::string("/.startup").size());
    std::string device = dir.substr(prefix.size());
    // Routers have a quagga directory; plain servers do not.
    if (configs.get(dir + "/etc/quagga/daemons") != nullptr) {
      parsed.push_back(parse_quagga_device(configs, dir, device));
    }
  }
  if (parsed.empty()) {
    throw ConfigError("no Netkit devices found under " + prefix);
  }
  return from_router_configs(std::move(parsed));
}

EmulatedNetwork EmulatedNetwork::from_cbgp_script(std::string_view script) {
  CbgpNetwork net = parse_cbgp_script(script);
  EmulatedNetwork out = from_router_configs(std::move(net.routers));
  out.explicit_links_ = std::move(net.links);
  return out;
}

EmulatedNetwork EmulatedNetwork::from_router_configs(
    std::vector<RouterConfig> configs) {
  EmulatedNetwork net;
  std::sort(configs.begin(), configs.end(),
            [](const RouterConfig& a, const RouterConfig& b) {
              return a.hostname < b.hostname;
            });
  for (auto& cfg : configs) {
    if (net.by_name_.contains(cfg.hostname)) {
      throw ConfigError("duplicate router hostname " + cfg.hostname);
    }
    net.by_name_[cfg.hostname] = net.routers_.size();
    net.routers_.emplace_back(std::move(cfg));
  }
  return net;
}

void EmulatedNetwork::index_addresses() {
  by_address_.clear();
  for (std::size_t r = 0; r < routers_.size(); ++r) {
    const RouterConfig& cfg = routers_[r].config();
    if (cfg.loopback) by_address_[cfg.loopback->address.value()] = r;
    for (const auto& iface : cfg.interfaces) {
      by_address_[iface.address.address.value()] = r;
    }
  }
}

void EmulatedNetwork::build_segments() {
  segments_.clear();
  // Group interfaces by subnet: interfaces sharing a subnet share a
  // collision domain (that is exactly how the IP design rules allocate).
  // Administratively failed segments are excluded entirely.
  std::map<Ipv4Prefix, std::vector<SegmentMember>> groups;
  for (std::size_t r = 0; r < routers_.size(); ++r) {
    if (router_failed(r)) continue;
    const RouterConfig& cfg = routers_[r].config();
    for (std::size_t i = 0; i < cfg.interfaces.size(); ++i) {
      const Ipv4Prefix& subnet = cfg.interfaces[i].address.prefix;
      if (subnet_down(subnet)) continue;
      groups[subnet].push_back(SegmentMember{r, i});
    }
  }
  segments_.reserve(groups.size());
  for (auto& [subnet, members] : groups) {
    segments_.push_back(Segment{subnet, std::move(members)});
  }
}

namespace {

/// The subnet shared by two routers, if any.
std::optional<Ipv4Prefix> shared_subnet(const RouterConfig& a,
                                        const RouterConfig& b) {
  for (const auto& ia : a.interfaces) {
    for (const auto& ib : b.interfaces) {
      if (ia.address.prefix == ib.address.prefix) return ia.address.prefix;
    }
  }
  return std::nullopt;
}

}  // namespace

bool EmulatedNetwork::fail_link(std::string_view router_a,
                                std::string_view router_b) {
  const VirtualRouter* a = router(router_a);
  const VirtualRouter* b = router(router_b);
  if (a == nullptr || b == nullptr) return false;
  auto subnet = shared_subnet(a->config(), b->config());
  if (!subnet) return false;
  failed_subnets_.insert(*subnet);
  return true;
}

bool EmulatedNetwork::restore_link(std::string_view router_a,
                                   std::string_view router_b) {
  const VirtualRouter* a = router(router_a);
  const VirtualRouter* b = router(router_b);
  if (a == nullptr || b == nullptr) return false;
  auto subnet = shared_subnet(a->config(), b->config());
  if (!subnet) return false;
  return failed_subnets_.erase(*subnet) > 0;
}

bool EmulatedNetwork::fail_node(std::string_view router_name) {
  auto it = by_name_.find(router_name);
  if (it == by_name_.end()) return false;
  if (!failed_routers_.insert(it->second).second) return false;
  for (const auto& iface : routers_[it->second].config().interfaces) {
    node_failed_subnets_.insert(iface.address.prefix);
  }
  return true;
}

bool EmulatedNetwork::restore_node(std::string_view router_name) {
  auto it = by_name_.find(router_name);
  if (it == by_name_.end()) return false;
  if (failed_routers_.erase(it->second) == 0) return false;
  // Rebuild the node-failure subnet set from the routers still down (two
  // failed routers can share a segment).
  node_failed_subnets_.clear();
  for (std::size_t r : failed_routers_) {
    for (const auto& iface : routers_[r].config().interfaces) {
      node_failed_subnets_.insert(iface.address.prefix);
    }
  }
  return true;
}

std::vector<std::string> EmulatedNetwork::failed_nodes() const {
  std::vector<std::string> out;
  out.reserve(failed_routers_.size());
  for (std::size_t r : failed_routers_) out.push_back(routers_[r].name());
  std::sort(out.begin(), out.end());
  return out;
}

std::string EmulationStats::to_text() const {
  std::ostringstream out;
  out << "bgp sessions: " << bgp_sessions << "\n";
  out << "bgp updates: " << bgp_updates << "\n";
  out << "bgp withdrawals: " << bgp_withdrawals << "\n";
  out << "convergence rounds: " << convergence_rounds << "\n";
  out << "convergence runs: " << convergence_runs << "\n";
  out << "decision process reruns: " << decision_reruns << "\n";
  out << "lsa floods: " << lsa_floods << "\n";
  out << "oscillation detections: " << oscillations << "\n";
  out << "spf runs: " << spf_runs << "\n";
  for (const auto& [router, runs] : spf_per_router) {
    out << "  spf[" << router << "]: " << runs << "\n";
  }
  return out.str();
}

ConvergenceReport EmulatedNetwork::start(std::size_t max_bgp_rounds,
                                         core::RunControl* control) {
  // The hot loops below touch only the plain stats_ struct; telemetry
  // publication happens once, as per-run deltas, after they finish.
  const EmulationStats before = stats_;
  core::checkpoint(control, "emulation.start");
  index_addresses();
  build_segments();
  {
    obs::Span span("emulation.ospf");
    compute_ospf();
  }
  core::checkpoint(control, "emulation.bgp");
  {
    obs::Span span("emulation.bgp");
    report_ = run_bgp(max_bgp_rounds, control);
  }
  install_bgp_routes();
  stats_.bgp_updates += report_.updates;
  stats_.convergence_rounds += report_.rounds;
  ++stats_.convergence_runs;
  if (report_.oscillating) ++stats_.oscillations;
  started_ = true;

  obs::Registry& obs = obs::Registry::current();
  if (obs.enabled()) {
    auto scope = obs.scope("emulation");
    scope.counter("spf_runs").inc(stats_.spf_runs - before.spf_runs);
    scope.counter("lsa_floods").inc(stats_.lsa_floods - before.lsa_floods);
    scope.counter("bgp_updates").inc(stats_.bgp_updates - before.bgp_updates);
    scope.counter("bgp_withdrawals")
        .inc(stats_.bgp_withdrawals - before.bgp_withdrawals);
    scope.counter("decision_reruns")
        .inc(stats_.decision_reruns - before.decision_reruns);
    scope.counter("convergence_rounds").inc(report_.rounds);
    scope.counter("convergence_runs").inc();
    if (report_.oscillating) scope.counter("oscillations").inc();
    scope.gauge("bgp_sessions").set(static_cast<std::int64_t>(sessions_.size()));
    scope.gauge("routers").set(static_cast<std::int64_t>(routers_.size()));
  }
  return report_;
}

std::vector<std::string> EmulatedNetwork::router_names() const {
  std::vector<std::string> out;
  out.reserve(routers_.size());
  for (const auto& [name, idx] : by_name_) out.push_back(name);
  return out;
}

const VirtualRouter* EmulatedNetwork::router(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &routers_[it->second];
}

VirtualRouter* EmulatedNetwork::router(std::string_view name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &routers_[it->second];
}

std::optional<std::string> EmulatedNetwork::owner_of(Ipv4Addr addr) const {
  auto it = by_address_.find(addr.value());
  if (it == by_address_.end()) return std::nullopt;
  return routers_[it->second].name();
}

double EmulatedNetwork::igp_metric_to(std::size_t r, Ipv4Addr addr) const {
  auto owner = by_address_.find(addr.value());
  if (owner == by_address_.end()) return std::numeric_limits<double>::infinity();
  if (owner->second == r) return 0.0;
  const auto& dist = igp_dist_[r];
  auto it = dist.find(owner->second);
  return it == dist.end() ? std::numeric_limits<double>::infinity() : it->second;
}

std::string EmulatedNetwork::exec(std::string_view router_name,
                                  std::string_view command) const {
  const VirtualRouter* r = router(router_name);
  if (r == nullptr) {
    throw std::invalid_argument("exec: unknown router " + std::string(router_name));
  }
  std::istringstream in{std::string(command)};
  std::vector<std::string> argv;
  std::string tok;
  while (in >> tok) argv.push_back(tok);
  if (argv.empty()) return "";

  if (argv[0] == "traceroute") {
    // accept flags (-naU etc.) between the command and the target
    std::string target;
    for (std::size_t i = 1; i < argv.size(); ++i) {
      if (!argv[i].starts_with("-")) target = argv[i];
    }
    auto dst = Ipv4Addr::parse(target);
    if (!dst) {
      // allow hostnames of emulated routers
      const VirtualRouter* t = router(target);
      if (t != nullptr && t->config().loopback) {
        dst = t->config().loopback->address;
      }
    }
    if (!dst) return "traceroute: unknown host " + target + "\n";
    return traceroute(router_name, *dst).to_text();
  }
  if (command == "show metrics") {
    // Control-plane work counters (§3.2-style workload visibility).
    return stats_.to_text();
  }
  if (command == "show failures" || command == "show incidents") {
    // Incident summary for what-if/fault studies: link and node state.
    std::string out = "failed links: " + std::to_string(failed_link_count()) + "\n";
    out += "failed routers: " + std::to_string(failed_node_count());
    std::string names;
    for (const auto& name : failed_nodes()) {
      names += names.empty() ? name : " " + name;
    }
    if (!names.empty()) out += " (" + names + ")";
    out += "\n";
    return out;
  }
  if (command == "show ip ospf neighbor" || command == "show ospf neighbors") {
    std::string out = "Neighbor ID     State\n";
    for (const auto& n : r->ospf_neighbors()) {
      const VirtualRouter* peer = router(n);
      const std::string id = peer ? router_id(peer->config()).to_string() : n;
      out += id + "  Full  # " + n + "\n";
    }
    return out;
  }
  if (command == "show ip bgp") {
    // One line per best route: ">" marker, prefix, next hop, AS path.
    std::string out = "BGP table version is 1, local router ID is " +
                      router_id(r->config()).to_string() + "\n";
    for (const auto& [prefix, route] : r->bgp_best()) {
      out += ">  " + prefix + "  " + route.next_hop.to_string() + "  ";
      for (auto as : route.as_path) out += std::to_string(as) + " ";
      out += route.local_originated ? "i\n" : "e\n";
    }
    return out;
  }
  if (command == "show ip bgp summary") {
    std::string out = "BGP router identifier " +
                      router_id(r->config()).to_string() + ", local AS number " +
                      std::to_string(r->asn()) + "\n";
    for (const auto& s : sessions_) {
      if (routers_[s.local].name() != router_name) continue;
      out += s.peer_addr.to_string() + "  AS" +
             std::to_string(routers_[s.peer].asn()) + "  Established\n";
    }
    return out;
  }
  return "unknown command: " + std::string(command) + "\n";
}

std::string TracerouteResult::to_text() const {
  // Mirrors "traceroute -n" output: "<ttl>  <ip>  <rtt> ms".
  std::ostringstream out;
  int ttl = 1;
  for (const auto& hop : hops) {
    out << " " << ttl++ << "  " << hop.address.to_string() << "  " << hop.rtt_ms
        << " ms\n";
  }
  if (!reached) out << " " << ttl << "  * * *\n";
  return out.str();
}

}  // namespace autonet::emulation
