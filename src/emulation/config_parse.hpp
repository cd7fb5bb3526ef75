// Configuration parsers: read the *rendered* device configurations back
// into router models, exactly as the emulation platform's routing daemons
// would. This closes the loop the paper relies on — the emulated network
// runs from the generated configs, so template or compiler errors surface
// as routing errors, not silent skips.
//
// Quagga (zebra/ospfd/bgpd + .startup), IOS (startup-config.cfg) and
// Junos (juniper.conf) flavours are supported; C-BGP's network.cli is
// parsed as a whole-network script.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "addressing/ipv4.hpp"
#include "render/config_tree.hpp"

namespace autonet::emulation {

class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct InterfaceConfig {
  std::string id;
  addressing::Ipv4Interface address;
  std::int64_t ospf_cost = 1;
};

struct OspfNetworkConfig {
  addressing::Ipv4Prefix network;
  std::int64_t area = 0;
};

struct BgpNeighborConfig {
  addressing::Ipv4Addr neighbor;
  std::int64_t remote_as = 0;
  bool update_source_loopback = false;
  bool next_hop_self = false;
  bool rr_client = false;
  /// Outbound "^$" as-path policy: export only locally originated
  /// prefixes (stub/no-transit customers).
  bool only_local_out = false;
  /// Ingress local-preference policy; 0 = provider default (100).
  std::int64_t local_pref_in = 0;
  /// Egress MED attached to routes advertised over this session; -1 =
  /// none (MED 0).
  std::int64_t med_out = -1;
  std::string description;
};

/// Everything a routing daemon learns from one device's configuration.
struct RouterConfig {
  std::string hostname;
  std::string syntax;  // quagga | ios | junos | cbgp
  std::vector<InterfaceConfig> interfaces;
  std::optional<addressing::Ipv4Interface> loopback;

  bool ospf_enabled = false;
  std::optional<addressing::Ipv4Addr> router_id;
  std::vector<OspfNetworkConfig> ospf_networks;
  /// Per-interface costs (by interface id), from `ip ospf cost` lines.
  std::vector<std::pair<std::string, std::int64_t>> ospf_costs;

  bool bgp_enabled = false;
  std::int64_t asn = 0;
  std::vector<addressing::Ipv4Prefix> bgp_networks;
  std::vector<BgpNeighborConfig> bgp_neighbors;

  /// Vendor behaviour: whether the BGP decision process includes the
  /// IGP-metric step (§7.2: true for IOS/Junos/C-BGP, false for Quagga).
  bool igp_tiebreak = true;

  /// IGP domain id (C-BGP `net node X domain N`); -1 when unscoped.
  std::int64_t igp_domain = -1;

  /// Resolves an interface id to its config; nullptr when unknown.
  [[nodiscard]] const InterfaceConfig* interface(std::string_view id) const;
};

/// Splits a config line into its words at runs of whitespace (space, \t,
/// \n, \v, \f, \r), as `std::istream >> std::string` does in the "C"
/// locale: the token rule every platform parser applies, to views of the
/// config text.
[[nodiscard]] std::vector<std::string> tokenize(std::string_view line);

/// Parses a Quagga device directory (paths relative to the device folder:
/// ".startup", "etc/quagga/ospfd.conf", "etc/quagga/bgpd.conf").
[[nodiscard]] RouterConfig parse_quagga_device(const render::ConfigTree& tree,
                                               const std::string& device_dir,
                                               const std::string& hostname);

/// Parses an IOS startup-config.
[[nodiscard]] RouterConfig parse_ios_config(std::string_view text);

/// Parses a Junos configuration.
[[nodiscard]] RouterConfig parse_junos_config(std::string_view text);

/// Parses a network-wide C-BGP script into one RouterConfig per node
/// (hostnames are the node addresses) plus explicit links.
struct CbgpLink {
  addressing::Ipv4Addr a;
  addressing::Ipv4Addr b;
  std::int64_t weight = 1;
};
struct CbgpNetwork {
  std::vector<RouterConfig> routers;
  std::vector<CbgpLink> links;
};
[[nodiscard]] CbgpNetwork parse_cbgp_script(std::string_view text);

}  // namespace autonet::emulation
