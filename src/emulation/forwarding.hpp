// The forwarding plane, defined once and shared by the emulation
// (EmulatedNetwork's traceroute, ping and reachability matrix), the
// measurement client built on it, and the offline predictor
// (verify/analysis): the FIB entry and its longest-prefix lookup, the
// per-config primitives both control planes read (router id, OSPF
// coverage, address ownership, BGP session source, trace target), the
// segment and session records they build, and the hop-by-hop walk.
//
// What *fills* the FIBs — OSPF SPF, the BGP decision process, FIB
// install and segment grouping — deliberately stays two independent
// implementations (src/emulation/ and verify/analysis/model.cpp): they
// are what `autonet analyze --cross-check` and the fib-crosscheck fuzz
// oracle compare against each other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "emulation/config_parse.hpp"

namespace autonet::emulation {

/// Route source, with conventional administrative distances.
enum class RouteSource { kConnected, kOspf, kEbgp, kIbgp };

[[nodiscard]] constexpr int admin_distance(RouteSource s) {
  switch (s) {
    case RouteSource::kConnected: return 0;
    case RouteSource::kEbgp: return 20;
    case RouteSource::kOspf: return 110;
    case RouteSource::kIbgp: return 200;
  }
  return 255;
}

struct FibEntry {
  addressing::Ipv4Prefix prefix;
  RouteSource source = RouteSource::kConnected;
  std::string out_interface;  // "" for loopback-owned prefixes
  /// Immediate next hop; nullopt when the destination is on-link.
  std::optional<addressing::Ipv4Addr> next_hop;
  double metric = 0;
};

/// Longest-prefix match (ties: lowest admin distance, then metric);
/// nullptr when no entry covers `dst`.
[[nodiscard]] const FibEntry* lookup(const std::vector<FibEntry>& fib,
                                     addressing::Ipv4Addr dst);

/// The router id: explicit, else loopback, else highest interface.
[[nodiscard]] addressing::Ipv4Addr router_id(const RouterConfig& cfg);

/// True when the OSPF process covers `subnet` (the first network
/// statement that contains it wins); `area` receives its area.
[[nodiscard]] bool ospf_covers(const RouterConfig& cfg,
                               const addressing::Ipv4Prefix& subnet,
                               std::int64_t* area = nullptr);

/// Does any local address (interface or loopback) equal `addr`?
[[nodiscard]] bool owns_address(const RouterConfig& cfg, addressing::Ipv4Addr addr);

/// The local address a router uses on a BGP session to `peer_addr`: its
/// interface on the shared subnet for direct sessions, else its
/// loopback, else its first interface.
[[nodiscard]] addressing::Ipv4Addr session_source(const RouterConfig& cfg,
                                                  addressing::Ipv4Addr peer_addr,
                                                  bool update_source_loopback);

/// The address a router-to-router trace probes: the loopback, else the
/// first interface; nullopt when the router has no address.
[[nodiscard]] std::optional<addressing::Ipv4Addr> trace_target(const RouterConfig& cfg);

/// One interface on a collision domain.
struct SegmentMember {
  std::size_t router;
  std::size_t iface;  // index into RouterConfig::interfaces
};

/// A collision domain: the interfaces sharing one subnet.
struct Segment {
  addressing::Ipv4Prefix subnet;
  std::vector<SegmentMember> members;
};

/// An established BGP session, seen from its local end.
struct BgpSession {
  std::size_t local;  // router index
  std::size_t peer;   // router index
  addressing::Ipv4Addr local_addr;
  addressing::Ipv4Addr peer_addr;
  bool ebgp = false;
  bool peer_is_client = false;  // local reflects to peer
  bool next_hop_self = false;
  bool only_local_out = false;  // "^$" export policy on this session
  std::int64_t med_out = -1;    // egress MED; -1 = none
};

/// What the walk reads of one router.
struct ForwardingRouter {
  const RouterConfig& config;
  const std::vector<FibEntry>& fib;
  /// A down router neither sources nor answers probes.
  bool down = false;
};

enum class WalkEnd {
  kReached,      // `at` owns the destination and answered
  kDropped,      // `at` has no route, or its next hop belongs to no router
  kDown,         // `at` is down
  kTtlExceeded,  // max_ttl hops without reaching the destination
};

struct WalkOutcome {
  WalkEnd end;
  std::size_t at;  // the router index where the walk ended
};

/// Forwards a probe for `dst` hop by hop from router `src`, the way the
/// real Linux traceroute the paper runs would see it. `router_at(r)`
/// returns router r's ForwardingRouter; `by_address` maps each address
/// to its owner's index. `on_hop(r, reply)` is called for every router
/// that answers, in path order: a transit hop answers from the route's
/// next hop (the interface the packet arrived on), the destination from
/// the probed address itself.
template <typename RouterAt, typename OnHop>
WalkOutcome walk(std::size_t src, addressing::Ipv4Addr dst, int max_ttl,
                 const std::map<std::uint32_t, std::size_t>& by_address,
                 const RouterAt& router_at, OnHop&& on_hop) {
  const ForwardingRouter source = router_at(src);
  if (source.down) return {WalkEnd::kDown, src};
  if (owns_address(source.config, dst)) {
    on_hop(src, dst);
    return {WalkEnd::kReached, src};
  }
  std::size_t current = src;
  for (int ttl = 0; ttl < max_ttl; ++ttl) {
    const FibEntry* route = lookup(router_at(current).fib, dst);
    if (route == nullptr) return {WalkEnd::kDropped, current};  // !N
    // On-link routes deliver to the owner of dst itself.
    const addressing::Ipv4Addr target = route->next_hop ? *route->next_hop : dst;
    const auto owner = by_address.find(target.value());
    if (owner == by_address.end()) return {WalkEnd::kDropped, current};
    const std::size_t next = owner->second;
    const ForwardingRouter hop = router_at(next);
    if (hop.down) return {WalkEnd::kDown, next};
    if (owns_address(hop.config, dst)) {
      on_hop(next, dst);
      return {WalkEnd::kReached, next};
    }
    on_hop(next, target);
    current = next;
  }
  return {WalkEnd::kTtlExceeded, current};
}

}  // namespace autonet::emulation
