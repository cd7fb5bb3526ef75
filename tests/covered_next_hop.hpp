// A hand-built input where a BGP route installed at one router covers a
// next hop that an earlier route of the same router resolved, shared by
// the emulation's and the predictor's reference tests (the fuzz generator
// never produces a covering aggregate).
//
// a (AS 1) hears three routes and installs them in prefix-text order.
// 10.0.64.0/24, from x (AS 2) through b without next-hop-self, has next
// hop 10.2.0.5, x's address on the 10.2.0.0/24 stub that b covers in
// OSPF: it resolves through that OSPF route. 10.2.0.0/25, from y (AS 3)
// across a's own link, covers 10.2.0.5. 198.51.100.0/24, again from x,
// has next hop 10.2.0.5, whose longest match is now that BGP /25: it
// resolves through no non-BGP route and stays out of a's FIB. An install
// that keeps the resolution cached from the first route installs it.
#pragma once

#include <vector>

#include "reflected_next_hop.hpp"

namespace autonet::fixtures {

/// The routers a, b, x and y.
inline std::vector<emulation::RouterConfig> covered_next_hop() {
  using addressing::Ipv4Addr;
  using addressing::Ipv4Prefix;
  emulation::RouterConfig a = router("a", 1);
  emulation::RouterConfig b = router("b", 1);
  emulation::RouterConfig x = router("x", 2);
  emulation::RouterConfig y = router("y", 3);
  link(a, b, 0, 1, true);   // a 10.1.0.1, b 10.1.0.2
  link(a, y, 1, 1, false);  // a 10.1.0.5, y 10.1.0.6
  const Ipv4Prefix stub = *Ipv4Prefix::parse("10.2.0.0/24");
  b.interfaces.push_back({"eth1", {*Ipv4Addr::parse("10.2.0.1"), stub}, 1});
  b.ospf_networks.push_back({stub, 0});
  x.interfaces.push_back({"eth0", {*Ipv4Addr::parse("10.2.0.5"), stub}, 1});
  neighbor(a, "10.1.0.2", 1);
  neighbor(a, "10.1.0.6", 3);
  neighbor(b, "10.1.0.1", 1);
  neighbor(b, "10.2.0.5", 2);
  neighbor(x, "10.2.0.1", 1);
  neighbor(y, "10.1.0.5", 1);
  x.bgp_networks.push_back(*Ipv4Prefix::parse("10.0.64.0/24"));
  x.bgp_networks.push_back(*Ipv4Prefix::parse("198.51.100.0/24"));
  y.bgp_networks.push_back(*Ipv4Prefix::parse("10.2.0.0/25"));
  return {a, b, x, y};
}

}  // namespace autonet::fixtures
