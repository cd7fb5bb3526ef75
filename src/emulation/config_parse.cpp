#include "emulation/config_parse.hpp"

#include <charconv>
#include <iterator>

namespace autonet::emulation {

using addressing::Ipv4Addr;
using addressing::Ipv4Interface;
using addressing::Ipv4Prefix;

namespace {

/// Splits `line` into `tokens`, views into it, at runs of the bytes
/// isspace() accepts in the "C" locale. `tokens` keeps its capacity, so a
/// parser that reuses it allocates nothing per line.
void split(std::string_view line, std::vector<std::string_view>& tokens) {
  const auto space = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
  tokens.clear();
  std::size_t at = 0;
  while (true) {
    while (at < line.size() && space(line[at])) ++at;
    if (at == line.size()) return;
    const std::size_t start = at;
    while (at < line.size() && !space(line[at])) ++at;
    tokens.push_back(line.substr(start, at - start));
  }
}

/// The lines of a text as views into it: split at '\n', with a last line
/// that has no '\n' kept when it is not empty.
class Lines {
 public:
  explicit Lines(std::string_view text) : text_(text) {}
  class iterator {
   public:
    explicit iterator(std::string_view rest) : rest_(rest) { ++*this; }
    std::string_view operator*() const { return line_; }
    iterator& operator++() {
      done_ = rest_.empty();
      const std::size_t nl = rest_.find('\n');
      line_ = rest_.substr(0, nl);
      rest_ = nl == std::string_view::npos ? std::string_view() : rest_.substr(nl + 1);
      return *this;
    }
    bool operator==(std::default_sentinel_t) const { return done_; }

   private:
    std::string_view rest_;
    std::string_view line_;
    bool done_ = false;
  };
  [[nodiscard]] iterator begin() const { return iterator(text_); }
  [[nodiscard]] std::default_sentinel_t end() const { return {}; }

 private:
  std::string_view text_;
};

std::int64_t to_int(std::string_view s, const char* what) {
  std::int64_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size()) {
    throw ConfigError(std::string("bad ") + what + " '" + std::string(s) + "'");
  }
  return v;
}

Ipv4Addr to_addr(std::string_view s, const char* what) {
  auto a = Ipv4Addr::parse(s);
  if (!a) throw ConfigError(std::string("bad ") + what + " '" + std::string(s) + "'");
  return *a;
}

unsigned mask_to_len(Ipv4Addr mask) {
  std::uint32_t m = mask.value();
  unsigned len = 0;
  while (len < 32 && (m & 0x80000000u)) {
    m <<= 1;
    ++len;
  }
  if (m != 0) throw ConfigError("non-contiguous netmask");
  return len;
}

void apply_ospf_costs(RouterConfig& cfg) {
  for (const auto& [id, cost] : cfg.ospf_costs) {
    for (auto& iface : cfg.interfaces) {
      if (iface.id == id) iface.ospf_cost = cost;
    }
  }
}

BgpNeighborConfig& neighbor_entry(RouterConfig& cfg, Ipv4Addr addr) {
  for (auto& n : cfg.bgp_neighbors) {
    if (n.neighbor == addr) return n;
  }
  cfg.bgp_neighbors.push_back(BgpNeighborConfig{.neighbor = addr,
                                                .remote_as = 0,
                                                .update_source_loopback = false,
                                                .next_hop_self = false,
                                                .rr_client = false,
                                                .only_local_out = false,
                                                .local_pref_in = 0,
                                                .med_out = -1,
                                                .description = ""});
  return cfg.bgp_neighbors.back();
}

// Shared "router bgp" body parser: Quagga and IOS use the same neighbor
// statement grammar.
void parse_bgp_line(RouterConfig& cfg, const std::vector<std::string_view>& tokens) {
  if (tokens.size() >= 2 && tokens[0] == "network") {
    // Quagga: "network 10.0.0.0/24"; IOS: "network 10.0.0.0 mask m".
    if (tokens.size() >= 4 && tokens[2] == "mask") {
      cfg.bgp_networks.push_back(Ipv4Prefix(
          to_addr(tokens[1], "network"), mask_to_len(to_addr(tokens[3], "mask"))));
    } else if (auto p = Ipv4Prefix::parse(tokens[1])) {
      cfg.bgp_networks.push_back(*p);
    } else {
      throw ConfigError("bad bgp network statement");
    }
    return;
  }
  if (tokens.size() >= 3 && tokens[0] == "bgp" && tokens[1] == "router-id") {
    cfg.router_id = to_addr(tokens[2], "router-id");
    return;
  }
  if (tokens.size() >= 3 && tokens[0] == "neighbor") {
    Ipv4Addr peer = to_addr(tokens[1], "neighbor");
    BgpNeighborConfig& n = neighbor_entry(cfg, peer);
    const std::string_view verb = tokens[2];
    if (verb == "remote-as" && tokens.size() >= 4) {
      n.remote_as = to_int(tokens[3], "remote-as");
    } else if (verb == "update-source") {
      n.update_source_loopback = true;
    } else if (verb == "next-hop-self") {
      n.next_hop_self = true;
    } else if (verb == "route-reflector-client") {
      n.rr_client = true;
    } else if (verb == "route-map" && tokens.size() >= 5 &&
               tokens[3] == "only-local" && tokens[4] == "out") {
      // The reference templates pair this with `ip as-path access-list 1
      // permit ^$`: export only locally originated prefixes.
      n.only_local_out = true;
    } else if (verb == "description") {
      std::string desc;
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        if (!desc.empty()) desc += ' ';
        desc += tokens[i];
      }
      n.description = desc;
    }
    return;
  }
}

}  // namespace

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  split(line, tokens);
  return {tokens.begin(), tokens.end()};
}

const InterfaceConfig* RouterConfig::interface(std::string_view id) const {
  for (const auto& iface : interfaces) {
    if (iface.id == id) return &iface;
  }
  return nullptr;
}

RouterConfig parse_quagga_device(const render::ConfigTree& tree,
                                 const std::string& device_dir,
                                 const std::string& hostname) {
  RouterConfig cfg;
  cfg.hostname = hostname;
  cfg.syntax = "quagga";
  cfg.igp_tiebreak = false;  // Quagga bgpd default (§7.2)
  std::vector<std::string_view> tokens;

  // Interface addresses come from the .startup ifconfig lines, exactly as
  // Netkit brings them up.
  const std::string* startup = tree.get(device_dir + "/.startup");
  if (startup == nullptr) {
    throw ConfigError("missing .startup for " + device_dir);
  }
  for (const std::string_view line : Lines(*startup)) {
    split(line, tokens);
    // /sbin/ifconfig eth1 192.168.1.1 netmask 255.255.255.252 up
    if (tokens.size() >= 5 && tokens[0].ends_with("ifconfig") &&
        tokens[3] == "netmask") {
      Ipv4Addr addr = to_addr(tokens[2], "interface address");
      unsigned len = mask_to_len(to_addr(tokens[4], "netmask"));
      if (tokens[1].starts_with("lo")) {
        cfg.loopback = Ipv4Interface{addr, Ipv4Prefix(addr, len)};
      } else {
        cfg.interfaces.push_back(InterfaceConfig{
            std::string(tokens[1]), Ipv4Interface{addr, Ipv4Prefix(addr, len)}, 1});
      }
    }
  }

  if (const std::string* ospfd = tree.get(device_dir + "/etc/quagga/ospfd.conf")) {
    std::string current_interface;
    for (const std::string_view line : Lines(*ospfd)) {
      split(line, tokens);
      if (tokens.empty() || tokens[0] == "!") continue;
      if (tokens[0] == "interface" && tokens.size() >= 2) {
        current_interface = tokens[1];
      } else if (tokens.size() >= 4 && tokens[0] == "ip" && tokens[1] == "ospf" &&
                 tokens[2] == "cost") {
        cfg.ospf_costs.emplace_back(current_interface, to_int(tokens[3], "cost"));
      } else if (tokens.size() >= 2 && tokens[0] == "router" && tokens[1] == "ospf") {
        cfg.ospf_enabled = true;
      } else if (tokens.size() >= 3 && tokens[0] == "ospf" &&
                 tokens[1] == "router-id") {
        cfg.router_id = to_addr(tokens[2], "router-id");
      } else if (cfg.ospf_enabled && tokens.size() >= 4 && tokens[0] == "network" &&
                 tokens[2] == "area") {
        auto p = Ipv4Prefix::parse(tokens[1]);
        if (!p) throw ConfigError("bad ospf network " + std::string(tokens[1]));
        cfg.ospf_networks.push_back({*p, to_int(tokens[3], "area")});
      }
    }
  }

  if (const std::string* bgpd = tree.get(device_dir + "/etc/quagga/bgpd.conf")) {
    std::string current_routemap;
    for (const std::string_view line : Lines(*bgpd)) {
      split(line, tokens);
      if (tokens.empty() || tokens[0] == "!") continue;
      if (tokens.size() >= 3 && tokens[0] == "router" && tokens[1] == "bgp") {
        cfg.bgp_enabled = true;
        cfg.asn = to_int(tokens[2], "asn");
      } else if (tokens.size() >= 2 && tokens[0] == "route-map") {
        current_routemap = tokens[1];
      } else if (tokens.size() >= 3 && tokens[0] == "set" &&
                 tokens[1] == "local-preference" &&
                 current_routemap.starts_with("lp-")) {
        // Template idiom: route-map lp-<neighbor-ip> sets the ingress
        // preference for that neighbor.
        if (auto ip = Ipv4Addr::parse(current_routemap.substr(3))) {
          neighbor_entry(cfg, *ip).local_pref_in = to_int(tokens[2], "local-pref");
        }
      } else if (tokens.size() >= 3 && tokens[0] == "set" && tokens[1] == "metric" &&
                 current_routemap.starts_with("med-")) {
        if (auto ip = Ipv4Addr::parse(current_routemap.substr(4))) {
          neighbor_entry(cfg, *ip).med_out = to_int(tokens[2], "metric");
        }
      } else if (cfg.bgp_enabled) {
        parse_bgp_line(cfg, tokens);
      }
    }
  }

  apply_ospf_costs(cfg);
  return cfg;
}

RouterConfig parse_ios_config(std::string_view text) {
  RouterConfig cfg;
  cfg.syntax = "ios";
  cfg.igp_tiebreak = true;

  enum class Section { kNone, kInterface, kOspf, kBgp, kIsis, kRouteMap };
  Section section = Section::kNone;
  std::string current_interface;
  std::string current_routemap;
  std::vector<std::string_view> tokens;

  for (const std::string_view line : Lines(text)) {
    split(line, tokens);
    if (tokens.empty() || tokens[0] == "!") {
      if (!tokens.empty() || line.empty()) section = Section::kNone;
      if (!line.empty() && line[0] == '!') section = Section::kNone;
      continue;
    }
    const bool top_level = line[0] != ' ';
    if (top_level) {
      section = Section::kNone;
      if (tokens[0] == "hostname" && tokens.size() >= 2) {
        cfg.hostname = tokens[1];
      } else if (tokens[0] == "interface" && tokens.size() >= 2) {
        section = Section::kInterface;
        current_interface = tokens[1];
      } else if (tokens[0] == "router" && tokens.size() >= 2) {
        if (tokens[1] == "ospf") {
          section = Section::kOspf;
          cfg.ospf_enabled = true;
        } else if (tokens[1] == "bgp" && tokens.size() >= 3) {
          section = Section::kBgp;
          cfg.bgp_enabled = true;
          cfg.asn = to_int(tokens[2], "asn");
        } else if (tokens[1] == "isis") {
          section = Section::kIsis;
        }
      } else if (tokens[0] == "route-map" && tokens.size() >= 2) {
        section = Section::kRouteMap;
        current_routemap = tokens[1];
      }
      continue;
    }
    switch (section) {
      case Section::kInterface:
        if (tokens.size() >= 4 && tokens[0] == "ip" && tokens[1] == "address") {
          Ipv4Addr addr = to_addr(tokens[2], "interface address");
          unsigned len = mask_to_len(to_addr(tokens[3], "mask"));
          if (current_interface.starts_with("Loopback") ||
              current_interface.starts_with("lo")) {
            cfg.loopback = Ipv4Interface{addr, Ipv4Prefix(addr, len)};
          } else {
            cfg.interfaces.push_back(InterfaceConfig{
                current_interface, Ipv4Interface{addr, Ipv4Prefix(addr, len)}, 1});
          }
        } else if (tokens.size() >= 4 && tokens[0] == "ip" && tokens[1] == "ospf" &&
                   tokens[2] == "cost") {
          cfg.ospf_costs.emplace_back(current_interface, to_int(tokens[3], "cost"));
        }
        break;
      case Section::kOspf:
        if (tokens.size() >= 2 && tokens[0] == "router-id") {
          cfg.router_id = to_addr(tokens[1], "router-id");
        } else if (tokens.size() >= 5 && tokens[0] == "network" &&
                   tokens[3] == "area") {
          Ipv4Addr net = to_addr(tokens[1], "network");
          Ipv4Addr wildcard = to_addr(tokens[2], "wildcard");
          unsigned len = mask_to_len(Ipv4Addr(~wildcard.value()));
          cfg.ospf_networks.push_back(
              {Ipv4Prefix(net, len), to_int(tokens[4], "area")});
        }
        break;
      case Section::kBgp:
        parse_bgp_line(cfg, tokens);
        break;
      case Section::kRouteMap:
        if (tokens.size() >= 3 && tokens[0] == "set" &&
            tokens[1] == "local-preference" && current_routemap.starts_with("lp-")) {
          if (auto ip = Ipv4Addr::parse(current_routemap.substr(3))) {
            neighbor_entry(cfg, *ip).local_pref_in = to_int(tokens[2], "local-pref");
          }
        } else if (tokens.size() >= 3 && tokens[0] == "set" &&
                   tokens[1] == "metric" && current_routemap.starts_with("med-")) {
          if (auto ip = Ipv4Addr::parse(current_routemap.substr(4))) {
            neighbor_entry(cfg, *ip).med_out = to_int(tokens[2], "metric");
          }
        }
        break;
      default:
        break;
    }
  }
  apply_ospf_costs(cfg);
  return cfg;
}

RouterConfig parse_junos_config(std::string_view text) {
  RouterConfig cfg;
  cfg.syntax = "junos";
  cfg.igp_tiebreak = true;

  // A light structural walk: track the brace path and interpret the
  // statements this template set emits.
  std::vector<std::string> path;
  std::string current_interface;
  std::string current_neighbor;
  std::string group_type;
  std::vector<std::string> ospf_interfaces;
  bool ebgp_export_only_local = false;
  std::vector<std::string_view> tokens;

  auto in_path = [&path](std::initializer_list<std::string_view> want) {
    if (path.size() < want.size()) return false;
    std::size_t i = 0;
    for (auto w : want) {
      if (path[i] != w) return false;
      ++i;
    }
    return true;
  };

  for (const std::string_view raw : Lines(text)) {
    split(raw, tokens);
    if (tokens.empty()) continue;
    if (tokens.back() == "{") {
      tokens.pop_back();
      // The last identifier before '{'.
      const std::string_view name = tokens.empty() ? std::string_view() : tokens.back();
      if (in_path({"interfaces"}) && path.size() == 1) current_interface = name;
      if (in_path({"protocols", "bgp"}) && !tokens.empty() && tokens[0] == "group") {
        group_type.clear();
      }
      if (!tokens.empty() && tokens[0] == "neighbor" && tokens.size() >= 2) {
        current_neighbor = tokens[1];
        BgpNeighborConfig& n =
            neighbor_entry(cfg, to_addr(current_neighbor, "neighbor"));
        if (group_type == "internal") {
          n.remote_as = cfg.asn;
          n.update_source_loopback = true;
          n.next_hop_self = true;
        }
      }
      // OSPF interface blocks: protocols { ospf { area X { interface Y.0
      if (path.size() == 3 && path[0] == "protocols" && path[1] == "ospf" &&
          !tokens.empty() && tokens[0] == "interface") {
        std::string iface(name);
        if (auto dot = iface.rfind(".0"); dot != std::string::npos &&
            dot == iface.size() - 2) {
          iface.resize(dot);
        }
        ospf_interfaces.push_back(iface);
      }
      // Path element: the block's name token ("em0", "ospf", "0.0.0.0").
      path.emplace_back(name);
      continue;
    }
    if (tokens[0] == "}") {
      if (!path.empty()) path.pop_back();
      continue;
    }
    // statement line ending in ';'
    if (!tokens.empty() && tokens.back().ends_with(";")) {
      tokens.back().remove_suffix(1);
      if (tokens.back().empty()) tokens.pop_back();
    }
    if (tokens.empty()) continue;

    if (in_path({"system"}) && tokens[0] == "host-name" && tokens.size() >= 2) {
      cfg.hostname = tokens[1];
    } else if (in_path({"interfaces"}) && tokens[0] == "address" && tokens.size() >= 2) {
      auto p = Ipv4Prefix::parse(tokens[1]);
      if (!p) throw ConfigError("bad junos address " + std::string(tokens[1]));
      auto addr = Ipv4Addr::parse(tokens[1].substr(0, tokens[1].find('/')));
      Ipv4Interface iface{*addr, *p};
      if (current_interface.starts_with("lo")) {
        cfg.loopback = iface;
      } else {
        cfg.interfaces.push_back(InterfaceConfig{current_interface, iface, 1});
      }
    } else if (in_path({"routing-options"})) {
      if (tokens[0] == "autonomous-system" && tokens.size() >= 2) {
        cfg.asn = to_int(tokens[1], "asn");
      } else if (tokens[0] == "router-id" && tokens.size() >= 2) {
        cfg.router_id = to_addr(tokens[1], "router-id");
      } else if (tokens[0] == "route" && tokens.size() >= 2) {
        // `static { route X discard; }` + the implicit export policy the
        // template pairs with it: originate X into BGP.
        auto p = Ipv4Prefix::parse(tokens[1]);
        if (!p) throw ConfigError("bad junos static route " + std::string(tokens[1]));
        cfg.bgp_networks.push_back(*p);
      }
    } else if (in_path({"protocols", "ospf"})) {
      cfg.ospf_enabled = true;
      if (tokens[0] == "metric" && tokens.size() >= 2 && path.size() >= 4) {
        // interface name is the path element: protocols ospf area interface
        std::string iface = path.back();
        if (auto dot = iface.find(".0"); dot != std::string::npos) iface.resize(dot);
        cfg.ospf_costs.emplace_back(iface, to_int(tokens[1], "metric"));
      }
    } else if (in_path({"protocols", "bgp"})) {
      cfg.bgp_enabled = true;
      if (tokens[0] == "type" && tokens.size() >= 2) {
        group_type = tokens[1];
      } else if (tokens[0] == "export" && tokens.size() >= 2 &&
                 tokens[1] == "only-local" && group_type == "external") {
        ebgp_export_only_local = true;
      } else if (tokens[0] == "peer-as" && tokens.size() >= 2 &&
                 !current_neighbor.empty()) {
        neighbor_entry(cfg, to_addr(current_neighbor, "neighbor")).remote_as =
            to_int(tokens[1], "peer-as");
      } else if (tokens[0] == "metric-out" && tokens.size() >= 2 &&
                 !current_neighbor.empty()) {
        neighbor_entry(cfg, to_addr(current_neighbor, "neighbor")).med_out =
            to_int(tokens[1], "metric-out");
      } else if (tokens[0] == "cluster" && !current_neighbor.empty()) {
        neighbor_entry(cfg, to_addr(current_neighbor, "neighbor")).rr_client = true;
      }
    } else if (in_path({"policy-options"}) && path.size() >= 2 &&
               path[1].starts_with("lp-") && tokens.size() >= 2 &&
               tokens[0] == "local-preference") {
      // policy-statement lp-<neighbor-ip> { then { local-preference N; } }
      if (auto ip = Ipv4Addr::parse(path[1].substr(3))) {
        neighbor_entry(cfg, *ip).local_pref_in = to_int(tokens[1], "local-pref");
      }
    }
  }

  // Junos runs OSPF exactly on the interfaces listed under
  // protocols/ospf: their subnets are the OSPF networks.
  if (cfg.ospf_enabled) {
    for (const auto& name : ospf_interfaces) {
      if (const InterfaceConfig* iface = cfg.interface(name)) {
        cfg.ospf_networks.push_back({iface->address.prefix, 0});
      } else if (cfg.loopback && name.starts_with("lo")) {
        cfg.ospf_networks.push_back({cfg.loopback->prefix, 0});
      }
    }
  }
  // Junos internal groups: neighbors with no peer-as are internal.
  for (auto& n : cfg.bgp_neighbors) {
    if (n.remote_as == 0) {
      n.remote_as = cfg.asn;
      n.update_source_loopback = true;
      n.next_hop_self = true;
    } else if (n.remote_as != cfg.asn && ebgp_export_only_local) {
      n.only_local_out = true;
    }
  }
  apply_ospf_costs(cfg);
  return cfg;
}

CbgpNetwork parse_cbgp_script(std::string_view text) {
  CbgpNetwork net;
  auto router_index = [&net](Ipv4Addr id) -> std::size_t {
    for (std::size_t i = 0; i < net.routers.size(); ++i) {
      const auto& r = net.routers[i];
      if (r.loopback && r.loopback->address == id) return i;
    }
    RouterConfig cfg;
    cfg.syntax = "cbgp";
    cfg.igp_tiebreak = true;
    cfg.hostname = id.to_string();
    cfg.loopback = Ipv4Interface{id, Ipv4Prefix(id, 32)};
    cfg.router_id = id;
    net.routers.push_back(std::move(cfg));
    return net.routers.size() - 1;
  };
  auto router_by_id = [&](Ipv4Addr id) -> RouterConfig& {
    return net.routers[router_index(id)];
  };

  // Track the `bgp router` context as an index: later `net add node` /
  // `bgp add router` lines can grow the vector and would invalidate a
  // reference.
  constexpr std::size_t kNoRouter = static_cast<std::size_t>(-1);
  std::size_t current = kNoRouter;
  std::vector<std::string_view> tokens;
  for (const std::string_view line : Lines(text)) {
    split(line, tokens);
    if (tokens.empty() || tokens[0].starts_with("#")) continue;
    if (tokens[0] == "net" && tokens.size() >= 4 && tokens[1] == "add" &&
        tokens[2] == "node") {
      router_by_id(to_addr(tokens[3], "node"));
    } else if (tokens[0] == "net" && tokens.size() >= 4 && tokens[1] == "node" &&
               tokens[3] == "domain" && tokens.size() >= 5) {
      router_by_id(to_addr(tokens[2], "node")).igp_domain =
          to_int(tokens[4], "domain");
    } else if (tokens[0] == "net" && tokens.size() >= 5 && tokens[1] == "add" &&
               tokens[2] == "link") {
      net.links.push_back(
          {to_addr(tokens[3], "link"), to_addr(tokens[4], "link"), 1});
    } else if (tokens[0] == "net" && tokens.size() >= 7 && tokens[1] == "link" &&
               tokens[4] == "igp-weight") {
      Ipv4Addr a = to_addr(tokens[2], "link");
      Ipv4Addr b = to_addr(tokens[3], "link");
      std::int64_t w = to_int(tokens.back(), "igp-weight");
      for (auto& l : net.links) {
        if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) l.weight = w;
      }
    } else if (tokens[0] == "bgp" && tokens.size() >= 5 && tokens[1] == "add" &&
               tokens[2] == "router") {
      RouterConfig& r = router_by_id(to_addr(tokens[4], "router"));
      r.bgp_enabled = true;
      r.asn = to_int(tokens[3], "asn");
    } else if (tokens[0] == "bgp" && tokens.size() >= 3 && tokens[1] == "router") {
      current = router_index(to_addr(tokens[2], "router"));
    } else if (current != kNoRouter && tokens[0] == "add" && tokens.size() >= 3 &&
               tokens[1] == "network") {
      auto p = Ipv4Prefix::parse(tokens[2]);
      if (!p) throw ConfigError("bad cbgp network " + std::string(tokens[2]));
      net.routers[current].bgp_networks.push_back(*p);
    } else if (current != kNoRouter && tokens[0] == "add" && tokens.size() >= 4 &&
               tokens[1] == "peer") {
      BgpNeighborConfig& n = neighbor_entry(net.routers[current], to_addr(tokens[3], "peer"));
      n.remote_as = to_int(tokens[2], "peer-as");
      if (n.remote_as == net.routers[current].asn) {
        n.update_source_loopback = true;
        n.next_hop_self = true;
      }
    } else if (current != kNoRouter && tokens[0] == "peer" && tokens.size() >= 3 &&
               tokens[2] == "rr-client") {
      neighbor_entry(net.routers[current], to_addr(tokens[1], "peer")).rr_client = true;
    } else if (current != kNoRouter && tokens[0] == "peer" && tokens.size() >= 5 &&
               tokens[2] == "filter" && tokens[3] == "out" &&
               tokens[4] == "path-empty") {
      neighbor_entry(net.routers[current], to_addr(tokens[1], "peer")).only_local_out = true;
    } else if (current != kNoRouter && tokens[0] == "peer" && tokens.size() >= 4 &&
               tokens[2] == "local-pref") {
      neighbor_entry(net.routers[current], to_addr(tokens[1], "peer")).local_pref_in =
          to_int(tokens[3], "local-pref");
    } else if (current != kNoRouter && tokens[0] == "peer" && tokens.size() >= 4 &&
               tokens[2] == "med") {
      neighbor_entry(net.routers[current], to_addr(tokens[1], "peer")).med_out =
          to_int(tokens[3], "med");
    } else if (tokens[0] == "exit") {
      current = kNoRouter;
    }
  }
  return net;
}

}  // namespace autonet::emulation
