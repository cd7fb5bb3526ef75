// Control-plane signaling analysis: statically predicts whether the iBGP
// signaling graph distributes routes to every router in each AS
// (full-mesh or route-reflector topologies, modelling the RFC 4456
// reflection rules), detects reflector cluster loops, flags iBGP
// sessions whose loopback next hop the IGP cannot resolve, and checks
// that eBGP peers share a collision domain.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "addressing/ipv4.hpp"
#include "verify/index.hpp"
#include "verify/rules.hpp"

namespace autonet::verify {

using addressing::Ipv4Addr;
using addressing::Ipv4Prefix;
using detail::NidbIndex;

using detail::IbgpView;

namespace {

/// RFC 4456 propagation: which routers receive a route originated at
/// `source`, given reflection semantics. A reflector forwards routes
/// learned from a client to everyone and routes learned from a
/// non-client to its clients only; an ordinary router never forwards.
std::set<std::string> ibgp_reach(const IbgpView& view, const std::string& source) {
  enum How : int { kFromClient = 0, kFromNonClient = 1 };
  std::set<std::pair<std::string, int>> visited;
  std::set<std::string> reached;
  std::deque<std::pair<std::string, int>> queue;

  auto is_client = [&](const std::string& of, const std::string& peer) {
    auto it = view.clients_of.find(of);
    return it != view.clients_of.end() && it->second.contains(peer);
  };
  auto deliver = [&](const std::string& to, const std::string& from) {
    const int how = is_client(to, from) ? kFromClient : kFromNonClient;
    if (visited.insert({to, how}).second) {
      reached.insert(to);
      queue.emplace_back(to, how);
    }
  };

  // The origin advertises to all of its peers.
  if (auto it = view.sessions.find(source); it != view.sessions.end()) {
    for (const auto& peer : it->second) deliver(peer, source);
  }
  while (!queue.empty()) {
    auto [router, how] = queue.front();
    queue.pop_front();
    auto clients = view.clients_of.find(router);
    const bool reflector = clients != view.clients_of.end() && !clients->second.empty();
    if (!reflector) continue;  // ordinary iBGP speakers do not forward
    auto peers = view.sessions.find(router);
    if (peers == view.sessions.end()) continue;
    for (const auto& peer : peers->second) {
      if (peer == source) continue;
      // Client routes reflect to everyone; non-client routes to clients.
      if (how == kFromClient || clients->second.contains(peer)) {
        deliver(peer, router);
      }
    }
  }
  reached.erase(source);
  return reached;
}

void check_ibgp_partition(const RuleContext& ctx, Emitter& out) {
  const IbgpView& view = ctx.index->ibgp;
  const std::string& mode = ctx.index->ibgp_mode;
  for (const auto& [asn, members] : view.members) {
    if (members.size() < 2) continue;
    for (const auto& source : members) {
      const std::set<std::string> reached = ibgp_reach(view, source);
      std::string missing;
      for (const auto& member : members) {
        if (member == source || reached.contains(member)) continue;
        missing += (missing.empty() ? "" : ", ") + member;
      }
      if (!missing.empty()) {
        out.emit(source,
                 "iBGP signaling in AS" + std::to_string(asn) +
                     (mode.empty() ? "" : " (" + mode + ")") + ": routes from " +
                     source + " do not reach: " + missing,
                 "bgp.ibgp_neighbors");
      }
    }
  }
}

void check_rr_cluster_loop(const RuleContext& ctx, Emitter& out) {
  const IbgpView& view = ctx.index->ibgp;
  // Cycle detection over the reflector -> client digraph; a loop means
  // reflected routes can circulate between clusters forever.
  enum Color { kWhite, kGrey, kBlack };
  std::map<std::string, Color> color;
  std::vector<std::string> stack;
  std::set<std::string> reported;

  auto dfs = [&](auto&& self, const std::string& node) -> void {
    color[node] = kGrey;
    stack.push_back(node);
    auto edges = view.clients_of.find(node);
    if (edges != view.clients_of.end()) {
      for (const auto& next : edges->second) {
        auto c = color.find(next);
        if (c != color.end() && c->second == kGrey) {
          // Found a loop: report it anchored at its smallest member so
          // the same cycle is emitted exactly once.
          auto start = std::find(stack.begin(), stack.end(), next);
          std::string anchor = *std::min_element(start, stack.end());
          if (reported.insert(anchor).second) {
            std::string cycle;
            for (auto it = start; it != stack.end(); ++it) cycle += *it + " -> ";
            cycle += next;
            out.emit(anchor, "route-reflector cluster loop: " + cycle,
                     "bgp.ibgp_neighbors");
          }
        } else if (c == color.end() || c->second == kWhite) {
          self(self, next);
        }
      }
    }
    stack.pop_back();
    color[node] = kBlack;
  };
  for (const auto& [node, clients] : view.clients_of) {
    if (color.find(node) == color.end() || color[node] == kWhite) dfs(dfs, node);
  }
}

/// Whether `addr` lies in a subnet one of `device`'s interfaces attaches to.
bool attached(const NidbIndex& index, std::string_view device, Ipv4Addr addr) {
  return std::ranges::any_of(index.interfaces_of(device), [&](const auto& iface) {
    return iface.subnet && iface.subnet->contains(addr);
  });
}

void check_ibgp_nexthop(const RuleContext& ctx, Emitter& out) {
  const NidbIndex& index = *ctx.index;
  for (const auto& n : index.neighbors) {
    if (!n.ibgp || n.neighbor_ip.empty()) continue;
    auto owner = index.address_owner.find(n.neighbor_ip);
    if (owner == index.address_owner.end()) continue;
    const std::string& peer = owner->second;
    auto as_a = index.device_asn.find(n.device);
    auto as_b = index.device_asn.find(peer);
    if (as_a == index.device_asn.end() || as_b == index.device_asn.end() ||
        as_a->second != as_b->second) {
      continue;
    }
    // Only reason about next-hop resolution when this device runs an
    // IGP; without one there is no coverage to check against.
    if (!index.ospf_covered.contains(n.device)) continue;

    auto addr = Ipv4Addr::parse(n.neighbor_ip);
    if (!addr) continue;
    // Directly connected: the loopback sits inside a subnet we attach to.
    bool resolvable = attached(index, n.device, *addr);
    // Advertised by the peer's IGP process.
    if (!resolvable) {
      auto peer_igp = index.ospf_covered.find(peer);
      resolvable = peer_igp != index.ospf_covered.end() &&
                   std::ranges::any_of(peer_igp->second, [&](const Ipv4Prefix& p) {
                     return p.contains(*addr);
                   });
    }
    if (!resolvable) {
      out.emit(n.device,
               "iBGP neighbor " + n.neighbor_ip + " (" + peer +
                   ") is unresolvable: " + peer +
                   " does not advertise it into the IGP and it is not on a "
                   "connected subnet",
               n.path());
    }
  }
}

void check_ebgp_adjacency(const RuleContext& ctx, Emitter& out) {
  const NidbIndex& index = *ctx.index;
  for (const auto& n : index.neighbors) {
    if (n.ibgp || n.multihop || n.neighbor_ip.empty()) continue;
    auto owner = index.address_owner.find(n.neighbor_ip);
    if (owner == index.address_owner.end()) continue;  // bgp-unknown-peer
    auto addr = Ipv4Addr::parse(n.neighbor_ip);
    if (!addr) continue;
    if (!attached(index, n.device, *addr)) {
      out.emit(n.device,
               "eBGP neighbor " + n.neighbor_ip + " (" + owner->second +
                   ") is on no collision domain shared with " + n.device,
               n.path());
    }
  }
}

Rule signaling_rule(std::string id, std::string description, std::string origin,
                    void (*fn)(const RuleContext&, Emitter&)) {
  Rule rule;
  rule.info = {std::move(id), "signaling", Severity::kError,
               std::move(description), std::move(origin)};
  rule.run = fn;
  rule.needs_nidb = true;
  return rule;
}

}  // namespace

void register_signaling_rules(RuleRegistry& registry) {
  registry.add(signaling_rule(
      "ibgp-partition",
      "the iBGP signaling graph fails to distribute routes to every router "
      "in an AS under RFC 4456 reflection semantics",
      "design.ibgp", check_ibgp_partition));
  registry.add(signaling_rule(
      "rr-cluster-loop",
      "route-reflector client edges form a cycle, so reflected routes can "
      "circulate between clusters",
      "design.ibgp", check_rr_cluster_loop));
  registry.add(signaling_rule(
      "ibgp-nexthop-unresolved",
      "an iBGP session targets a loopback the IGP does not cover, so the "
      "session and learned next hops cannot resolve",
      "design.ibgp", check_ibgp_nexthop));
  registry.add(signaling_rule(
      "ebgp-peer-not-adjacent",
      "an eBGP neighbor address is outside every collision domain the "
      "device attaches to",
      "design.ebgp", check_ebgp_adjacency));
}

}  // namespace autonet::verify
