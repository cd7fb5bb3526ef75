// The one hand-built input that withdraws a BGP route, shared by the
// emulation's and the predictor's reference tests (the fuzz generator
// produces none).
//
// AS1's iBGP is a chain y - y2 - y3 (no y - y3 session). y2 first
// selects its eBGP route via x and gives it to y; once y3 learns a
// preferred route (local-pref 200 from z), y2 selects y3's iBGP route,
// which it may not pass on to y, so y loses its only route to
// 192.0.2.0/24 and withdraws it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "emulation/config_parse.hpp"

namespace autonet::fixtures {

namespace partial_mesh_detail {

/// A router hand-configured for the emulation: BGP on, no IGP, every
/// session over a directly connected /30.
inline emulation::RouterConfig bgp_router(const std::string& name, std::int64_t asn) {
  emulation::RouterConfig cfg;
  cfg.hostname = name;
  cfg.syntax = "quagga";
  cfg.bgp_enabled = true;
  cfg.asn = asn;
  return cfg;
}

/// Links a and b on 10.0.0.<4k>/30 and peers them; iBGP sessions set
/// next-hop-self, so every next hop is on a connected subnet.
inline void peer(emulation::RouterConfig& a, emulation::RouterConfig& b, std::uint32_t k,
                 std::int64_t local_pref_at_b = 0) {
  using addressing::Ipv4Addr;
  const Ipv4Addr base(0x0a000000u + 4 * k);
  const addressing::Ipv4Prefix subnet(base, 30);
  const Ipv4Addr at_a(base.value() + 1);
  const Ipv4Addr at_b(base.value() + 2);
  a.interfaces.push_back({"eth" + std::to_string(a.interfaces.size()), {at_a, subnet}});
  b.interfaces.push_back({"eth" + std::to_string(b.interfaces.size()), {at_b, subnet}});
  const bool ibgp = a.asn == b.asn;
  emulation::BgpNeighborConfig to_b;
  to_b.neighbor = at_b;
  to_b.remote_as = b.asn;
  to_b.next_hop_self = ibgp;
  emulation::BgpNeighborConfig to_a;
  to_a.neighbor = at_a;
  to_a.remote_as = a.asn;
  to_a.next_hop_self = ibgp;
  to_a.local_pref_in = local_pref_at_b;
  a.bgp_neighbors.push_back(to_b);
  b.bgp_neighbors.push_back(to_a);
}

}  // namespace partial_mesh_detail

/// The six routers o, x, y, y2, y3 and z; o originates 192.0.2.0/24.
inline std::vector<emulation::RouterConfig> partial_ibgp_mesh() {
  using partial_mesh_detail::bgp_router;
  using partial_mesh_detail::peer;
  auto o = bgp_router("o", 9);
  auto x = bgp_router("x", 2);
  auto z = bgp_router("z", 3);
  auto y = bgp_router("y", 1);
  auto y2 = bgp_router("y2", 1);
  auto y3 = bgp_router("y3", 1);
  o.bgp_networks.push_back(*addressing::Ipv4Prefix::parse("192.0.2.0/24"));
  peer(y, y2, 0);
  peer(y2, y3, 1);
  peer(x, y2, 2);
  peer(z, y3, 3, /*local_pref_at_b=*/200);
  peer(o, x, 4);
  peer(o, z, 5);
  return {o, x, y, y2, y3, z};
}

}  // namespace autonet::fixtures
