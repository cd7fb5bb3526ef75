// A hand-built input where a reflected BGP next hop moves, shared by the
// emulation's and the predictor's reference tests (the fuzz generator
// produces none), with the router, link and neighbor builders it is
// written in.
//
// c reflects to its client a, without next-hop-self, first bd's eBGP
// route, whose next hop on the c-bd link (outside OSPF) a cannot resolve,
// then e's, preferred for its local-pref 200, whose next hop (e's address
// on c-e) a reaches through OSPF. The entry a holds from c keeps its
// session and changes its next hop, and a's resolution must follow.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "emulation/config_parse.hpp"

namespace autonet::fixtures {

/// Adds 10.1.0.<4k>/30 between x (.1) and y (.2) at the given OSPF cost,
/// covered by both routers' OSPF (area 0) when `ospf`.
inline void link(emulation::RouterConfig& x, emulation::RouterConfig& y, std::uint32_t k,
                 std::int64_t cost, bool ospf) {
  using addressing::Ipv4Addr;
  const addressing::Ipv4Prefix subnet(Ipv4Addr(0x0a010000u + 4 * k), 30);
  std::uint32_t host = 1;
  for (emulation::RouterConfig* cfg : {&x, &y}) {
    cfg->interfaces.push_back({"eth" + std::to_string(cfg->interfaces.size()),
                               {Ipv4Addr(subnet.network().value() + host++), subnet},
                               cost});
    if (ospf) {
      cfg->ospf_enabled = true;
      cfg->ospf_networks.push_back({subnet, 0});
    }
  }
}

/// A neighbor statement, for the caller to set its policy flags.
inline emulation::BgpNeighborConfig& neighbor(emulation::RouterConfig& cfg,
                                              const char* address, std::int64_t remote_as) {
  emulation::BgpNeighborConfig& nc = cfg.bgp_neighbors.emplace_back();
  nc.neighbor = *addressing::Ipv4Addr::parse(address);
  nc.remote_as = remote_as;
  return nc;
}

inline emulation::RouterConfig router(const char* name, std::int64_t asn, bool bgp = true) {
  emulation::RouterConfig cfg;
  cfg.hostname = name;
  cfg.syntax = "ios";
  cfg.asn = asn;
  cfg.bgp_enabled = bgp;
  return cfg;
}

/// The routers a, bd, c and e; bd (AS 2) originates 198.51.100.0/24.
inline std::vector<emulation::RouterConfig> reflected_next_hop_moves() {
  emulation::RouterConfig a = router("a", 1);
  emulation::RouterConfig bd = router("bd", 2);
  emulation::RouterConfig c = router("c", 1);
  emulation::RouterConfig e = router("e", 1);
  link(a, c, 0, 1, true);    // a 10.1.0.1, c 10.1.0.2
  link(c, e, 1, 1, true);    // c 10.1.0.5, e 10.1.0.6
  link(c, bd, 2, 1, false);  // c 10.1.0.9, bd 10.1.0.10
  link(e, bd, 3, 1, false);  // e 10.1.0.13, bd 10.1.0.14
  neighbor(a, "10.1.0.2", 1);
  neighbor(c, "10.1.0.1", 1).rr_client = true;
  neighbor(c, "10.1.0.6", 1);
  neighbor(c, "10.1.0.10", 2);
  neighbor(e, "10.1.0.5", 1).next_hop_self = true;
  neighbor(e, "10.1.0.14", 2).local_pref_in = 200;
  neighbor(bd, "10.1.0.9", 1);
  neighbor(bd, "10.1.0.13", 1);
  bd.bgp_networks.push_back(*addressing::Ipv4Prefix::parse("198.51.100.0/24"));
  return {a, bd, c, e};
}

}  // namespace autonet::fixtures
