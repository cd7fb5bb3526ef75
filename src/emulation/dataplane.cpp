// Packet forwarding over the converged FIBs, through the shared forwarding
// plane in emulation/forwarding.hpp: single probes (traceroute, ping) walk
// hop by hop, the reachability matrix reads one forwarding column per
// destination. traceroute reports, per TTL, the address the probe's ICMP
// reply comes from — the *incoming* interface of each transit router,
// exactly as the real Linux traceroute binary the paper runs would see.
#include <stdexcept>

#include "emulation/network.hpp"

namespace autonet::emulation {

using addressing::Ipv4Addr;

namespace {

/// The hop callback of ping: only the outcome matters, so no hop is
/// recorded.
constexpr auto kNoHops = [](std::size_t, Ipv4Addr) {};

constexpr const char* kNotStarted = "traceroute: network not started";

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
  if (!started_) throw std::logic_error(kNotStarted);
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

void EmulatedNetwork::forwarding_columns(
    const std::vector<Ipv4Addr>& targets, int max_ttl,
    const std::function<void(std::size_t, const std::vector<ForwardingCell>&)>& visit)
    const {
  if (!started_) throw std::logic_error(kNotStarted);
  // Index routers in name order, the order callers see.
  std::vector<std::size_t> order;  // router index of each name
  std::vector<std::size_t> rank(routers_.size());
  for (const auto& [name, r] : by_name_) {
    rank[r] = order.size();
    order.push_back(r);
  }
  std::map<std::uint32_t, std::size_t> by_address;
  for (const auto& [address, r] : by_address_) {
    by_address.emplace_hint(by_address.end(), address, rank[r]);
  }
  const auto router_at = [this, &order](std::size_t k) {
    const std::size_t r = order[k];
    return ForwardingRouter{routers_[r].config(), routers_[r].fib(), router_failed(r)};
  };
  ColumnBuilder columns(order.size(), by_address, router_at);
  std::vector<ForwardingCell> column;
  for (std::size_t k = 0; k < targets.size(); ++k) {
    columns.build(targets[k], max_ttl, column);
    visit(k, column);
  }
}

ReachabilityMatrix EmulatedNetwork::reachability() const {
  ReachabilityMatrix m;
  std::vector<Ipv4Addr> loopbacks;
  std::vector<std::size_t> probed;  // the name-order router of each loopback
  for (const auto& [name, r] : by_name_) {
    if (const auto& loopback = routers_[r].config().loopback) {
      loopbacks.push_back(loopback->address);
      probed.push_back(m.routers.size());
    }
    m.routers.push_back(name);
  }
  const std::size_t n = m.routers.size();
  m.reached.assign(n, std::vector<bool>(n, false));
  forwarding_columns(loopbacks, 30, [&](std::size_t k, const std::vector<ForwardingCell>& column) {
    const std::size_t j = probed[k];
    for (std::size_t i = 0; i < n; ++i) {
      m.reached[i][j] = i != j && column[i].end == WalkEnd::kReached;
    }
  });
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
