// The forwarding plane, defined once and shared by the emulation
// (EmulatedNetwork's traceroute, ping and reachability matrix), the
// measurement client built on it, and the offline predictor
// (verify/analysis): the FIB entry and its longest-prefix lookup, the
// per-config primitives both control planes read (router id, OSPF
// coverage, address ownership, BGP session source, trace target), the
// segment and session records they build, the hop-by-hop walk that
// serves single probes, and the per-destination forwarding column behind
// every all-pairs answer (the reachability matrix, the predictor's path
// table and the cross-check), built over one network-wide prefix index of
// every FIB. The walk and the linear lookup() are also the references
// the index and the columns are tested against.
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
#include <span>
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

/// Longest-prefix match (ties: lowest admin distance, then metric, then
/// FIB order); nullptr when no entry covers `dst`.
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

enum class WalkEnd : std::uint8_t {
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

/// One router's cell in a forwarding column: the walk from that router
/// towards the column's destination.
struct ForwardingCell {
  /// The router that answers the walk's next hop, from `reply`. When the
  /// walk ends here without another answer: this router when it drops
  /// or is down, the down router when the next hop is down.
  std::uint32_t next = 0;
  addressing::Ipv4Addr reply;
  /// How many routers answer on the walk from here (walk's on_hop calls).
  std::uint16_t hops = 0;
  WalkEnd end = WalkEnd::kDropped;

  friend bool operator==(const ForwardingCell&, const ForwardingCell&) = default;
};

/// All-pairs forwarding, one destination at a time. build(dst, ...)
/// fills one cell per router with what walk(router, dst, ...) returns
/// and reports, with O(1) work per router: hop counts are shared along
/// next-hop chains, cycles and max_ttl end in kTtlExceeded.
///
/// The constructor takes walk's `by_address` and `router_at` and builds
/// one network-wide prefix index: every distinct prefix of every FIB,
/// longest first and then by network, each listing its holders in router
/// order. A holder carries the entry lookup() picks among its router's
/// entries for that prefix, its next hop resolved once: to the router
/// owning it, to a drop when no router does, or on-link, to the owner of
/// the destination, which each column resolves once. The index points
/// into the FIBs, so a builder serves one table build over FIBs that stay
/// unchanged while it lives.
class ColumnBuilder {
 public:
  template <typename RouterAt>
  ColumnBuilder(std::size_t routers,
                const std::map<std::uint32_t, std::size_t>& by_address,
                const RouterAt& router_at) {
    routers_.reserve(routers);
    for (std::size_t r = 0; r < routers; ++r) {
      const ForwardingRouter router = router_at(r);
      routers_.push_back({&router.config, &router.fib, router.down});
    }
    index(by_address);
  }

  /// Fills `column` (resized to one cell per router) with the walk from
  /// every router towards `dst`. max_ttl may be at most 65535.
  void build(addressing::Ipv4Addr dst, int max_ttl, std::vector<ForwardingCell>& column);

  /// The entry lookup(router's FIB, dst) returns, read from the index.
  [[nodiscard]] const FibEntry* lookup(std::size_t router, addressing::Ipv4Addr dst) const;

 private:
  struct Router {
    const RouterConfig* config;
    const std::vector<FibEntry>* fib;
    bool down;
  };
  /// One router's route for one prefix.
  struct Holder {
    std::uint32_t router;
    std::uint32_t entry;         // index into the router's FIB
    std::uint32_t next;          // the next hop's owner, kUnowned or kOnLink
    addressing::Ipv4Addr reply;  // the next hop, which answers
  };
  /// The prefixes of one length: networks_[begin, end).
  struct Length {
    std::uint32_t mask;
    std::uint32_t begin;
    std::uint32_t end;
  };
  using Owner = std::pair<std::uint32_t, std::uint32_t>;  // (address, router)
  static constexpr std::uint32_t kNone = 0xffffffff;
  static constexpr std::uint32_t kUnowned = kNone;
  static constexpr std::uint32_t kOnLink = kNone - 1;

  void index(const std::map<std::uint32_t, std::size_t>& by_address);
  /// The prefix of this length that contains `dst`, or kNone.
  [[nodiscard]] std::uint32_t prefix_of(const Length& length, addressing::Ipv4Addr dst) const;

  std::vector<Router> routers_;
  std::vector<Length> lengths_;            // longest first
  std::vector<std::uint32_t> networks_;    // prefix p's network, sorted within each length
  std::vector<std::uint32_t> holders_at_;  // prefix p's holders start here, up to p + 1's
  std::vector<Holder> holders_;            // in router order within each prefix
  std::vector<Owner> by_address_;          // walk's owner of each address
  std::vector<Owner> owners_;              // every (address, router) owns_address holds
  // Per-build scratch.
  std::vector<const Holder*> route_;  // each router's longest match
  std::vector<std::uint8_t> owns_;
  std::vector<std::uint8_t> state_;
  std::vector<std::uint32_t> chain_;
};

/// The outcome walk(src, dst, ...) returns, read from dst's column.
[[nodiscard]] WalkOutcome column_outcome(std::span<const ForwardingCell> column,
                                         std::size_t src);

/// Calls on_hop(router, reply) for every router that answers on the walk
/// from `src`, in path order: the calls walk() makes.
template <typename OnHop>
void column_walk(std::span<const ForwardingCell> column, std::size_t src,
                 OnHop&& on_hop) {
  std::size_t at = src;
  for (std::uint16_t hop = 0; hop < column[src].hops; ++hop) {
    const ForwardingCell& cell = column[at];
    on_hop(static_cast<std::size_t>(cell.next), cell.reply);
    at = cell.next;
  }
}

}  // namespace autonet::emulation
