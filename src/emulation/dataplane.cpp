// Hop-by-hop packet forwarding over the converged FIBs, through the
// shared walk in emulation/forwarding.hpp. traceroute reports, per TTL,
// the address the probe's ICMP reply comes from — the *incoming*
// interface of each transit router, exactly as the real Linux traceroute
// binary the paper runs would see.
#include <stdexcept>

#include "emulation/network.hpp"

namespace autonet::emulation {

using addressing::Ipv4Addr;

namespace {

/// The hop callback of ping and the reachability matrix: only the
/// outcome matters, so no hop is recorded.
constexpr auto kNoHops = [](std::size_t, Ipv4Addr) {};

}  // namespace

std::size_t EmulatedNetwork::probe_source(std::string_view name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw std::invalid_argument("traceroute: unknown router " + std::string(name));
  }
  return it->second;
}

template <typename OnHop>
WalkOutcome EmulatedNetwork::forward(std::size_t src, Ipv4Addr dst, int max_ttl,
                                     OnHop&& on_hop) const {
  if (!started_) {
    throw std::logic_error("traceroute: network not started");
  }
  const auto router_at = [this](std::size_t r) {
    return ForwardingRouter{routers_[r].config(), routers_[r].fib(), router_failed(r)};
  };
  return walk(src, dst, max_ttl, by_address_, router_at, on_hop);
}

TracerouteResult EmulatedNetwork::traceroute(std::string_view src_router,
                                             Ipv4Addr dst, int max_ttl) const {
  TracerouteResult result;
  double rtt = 0.0;  // synthetic: 0.1 ms per hop
  const auto record = [&](std::size_t r, Ipv4Addr reply) {
    rtt += 0.1;
    result.hops.push_back({reply, routers_[r].name(), rtt});
  };
  result.reached = forward(probe_source(src_router), dst, max_ttl, record).end ==
                   WalkEnd::kReached;
  return result;
}

TracerouteResult EmulatedNetwork::traceroute(std::string_view src_router,
                                             std::string_view dst_router,
                                             int max_ttl) const {
  const VirtualRouter* dst = router(dst_router);
  if (dst == nullptr) {
    throw std::invalid_argument("traceroute: unknown router " +
                                std::string(dst_router));
  }
  const auto target = trace_target(dst->config());
  if (!target) {
    throw std::invalid_argument("traceroute: " + std::string(dst_router) +
                                " has no addresses");
  }
  return traceroute(src_router, *target, max_ttl);
}

bool EmulatedNetwork::ping(std::string_view src_router, Ipv4Addr dst) const {
  return forward(probe_source(src_router), dst, 30, kNoHops).end ==
         WalkEnd::kReached;
}

ReachabilityMatrix EmulatedNetwork::reachability() const {
  ReachabilityMatrix m;
  std::vector<std::size_t> order;  // router index of each name, sorted
  for (const auto& [name, r] : by_name_) {
    m.routers.push_back(name);
    order.push_back(r);
  }
  const std::size_t n = order.size();
  m.reached.assign(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto& loopback = routers_[order[j]].config().loopback;
      if (i == j || !loopback) continue;
      m.reached[i][j] =
          forward(order[i], loopback->address, 30, kNoHops).end == WalkEnd::kReached;
    }
  }
  return m;
}

std::size_t ReachabilityMatrix::reachable_pairs() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < reached.size(); ++i) {
    for (std::size_t j = 0; j < reached[i].size(); ++j) {
      if (i != j && reached[i][j]) ++count;
    }
  }
  return count;
}

bool ReachabilityMatrix::fully_connected() const {
  const std::size_t n = routers.size();
  return n < 2 || reachable_pairs() == n * (n - 1);
}

}  // namespace autonet::emulation
