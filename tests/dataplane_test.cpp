#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "core/workflow.hpp"
#include "emulation/network.hpp"
#include "topology/builtin.hpp"

namespace {

using namespace autonet;
using namespace autonet::emulation;
using addressing::Ipv4Addr;

EmulatedNetwork booted(const graph::Graph& input) {
  core::Workflow wf;
  wf.load(input).design().compile().render();
  auto net = EmulatedNetwork::from_nidb(wf.nidb(), wf.configs());
  net.start();
  return net;
}

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }

/// An OSPF router on 10.0.0.0/8; `ifaces` are (address, subnet) pairs.
RouterConfig ospf_router(const std::string& name, const char* loopback,
                         std::vector<std::pair<const char*, const char*>> ifaces) {
  RouterConfig cfg;
  cfg.hostname = name;
  if (loopback != nullptr) {
    cfg.loopback = addressing::Ipv4Interface{ip(loopback),
                                             addressing::Ipv4Prefix(ip(loopback), 32)};
  }
  for (std::size_t i = 0; i < ifaces.size(); ++i) {
    const auto subnet = *addressing::Ipv4Prefix::parse(ifaces[i].second);
    cfg.interfaces.push_back({"eth" + std::to_string(i), {ip(ifaces[i].first), subnet}});
  }
  cfg.ospf_enabled = true;
  cfg.ospf_networks.push_back({*addressing::Ipv4Prefix::parse("10.0.0.0/8"), 0});
  return cfg;
}

/// OSPF chain a - b - c; c has a loopback only when asked.
EmulatedNetwork chain(bool c_loopback = true) {
  auto net = EmulatedNetwork::from_router_configs(
      {ospf_router("a", "10.0.0.1", {{"10.1.0.1", "10.1.0.0/30"}}),
       ospf_router("b", "10.0.0.2", {{"10.1.0.2", "10.1.0.0/30"}, {"10.1.1.1", "10.1.1.0/30"}}),
       ospf_router("c", c_loopback ? "10.0.0.3" : nullptr, {{"10.1.1.2", "10.1.1.0/30"}})});
  net.start();
  return net;
}

struct Walked {
  WalkOutcome outcome;
  std::vector<std::pair<std::size_t, Ipv4Addr>> hops;
};

/// walk() over the network as its public API shows it, routers in
/// router_names() order: the reference a forwarding column must equal.
Walked reference_walk(const EmulatedNetwork& net, std::size_t src, Ipv4Addr dst) {
  const auto names = net.router_names();
  const auto failed = net.failed_nodes();
  std::map<std::uint32_t, std::size_t> by_address;
  for (const auto& name : names) {
    const RouterConfig& cfg = net.router(name)->config();
    std::vector<Ipv4Addr> addresses;
    if (cfg.loopback) addresses.push_back(cfg.loopback->address);
    for (const auto& iface : cfg.interfaces) addresses.push_back(iface.address.address);
    for (const Ipv4Addr a : addresses) {
      by_address[a.value()] = static_cast<std::size_t>(
          std::find(names.begin(), names.end(), *net.owner_of(a)) - names.begin());
    }
  }
  const auto router_at = [&](std::size_t r) {
    const VirtualRouter& router = *net.router(names[r]);
    return ForwardingRouter{router.config(), router.fib(),
                            std::binary_search(failed.begin(), failed.end(), names[r])};
  };
  Walked walked;
  walked.outcome = walk(src, dst, 30, by_address, router_at,
                        [&](std::size_t r, Ipv4Addr reply) { walked.hops.emplace_back(r, reply); });
  return walked;
}

/// The column towards `dst`, after checking it equals walk() from every
/// router: verdict, end router, and every hop.
std::vector<ForwardingCell> column_towards(const EmulatedNetwork& net, Ipv4Addr dst) {
  std::vector<ForwardingCell> out;
  net.forwarding_columns({dst}, 30, [&](std::size_t, const std::vector<ForwardingCell>& column) {
    out = column;
  });
  const auto names = net.router_names();
  for (std::size_t src = 0; src < out.size(); ++src) {
    const Walked expected = reference_walk(net, src, dst);
    Walked read{column_outcome(out, src), {}};
    column_walk(out, src, [&](std::size_t r, Ipv4Addr reply) { read.hops.emplace_back(r, reply); });
    EXPECT_EQ(read.outcome.end, expected.outcome.end) << names[src] << " -> " << dst.to_string();
    EXPECT_EQ(read.outcome.at, expected.outcome.at) << names[src] << " -> " << dst.to_string();
    EXPECT_EQ(read.hops, expected.hops) << names[src] << " -> " << dst.to_string();
  }
  return out;
}

/// The route a router's FIB holds for exactly `prefix`.
FibEntry* route_for(EmulatedNetwork& net, const char* router, const char* prefix) {
  auto& fib = net.router(router)->mutable_fib();
  const auto want = *addressing::Ipv4Prefix::parse(prefix);
  const auto it = std::find_if(fib.begin(), fib.end(),
                               [&](const FibEntry& e) { return e.prefix == want; });
  return it == fib.end() ? nullptr : &*it;
}

TEST(Traceroute, DirectNeighbor) {
  auto net = booted(topology::figure5());
  auto result = net.traceroute("r1", "r2");
  EXPECT_TRUE(result.reached);
  ASSERT_EQ(result.hops.size(), 1u);
  EXPECT_EQ(result.hops[0].router, "r2");
}

TEST(Traceroute, MultiHopIntraAs) {
  auto net = booted(topology::figure5());
  auto result = net.traceroute("r1", "r4");
  EXPECT_TRUE(result.reached);
  EXPECT_EQ(result.hops.size(), 2u);  // via r2 or r3, then r4
  EXPECT_EQ(result.hops.back().router, "r4");
}

TEST(Traceroute, CrossAsViaBgp) {
  auto net = booted(topology::figure5());
  auto result = net.traceroute("r1", "r5");
  EXPECT_TRUE(result.reached);
  EXPECT_EQ(result.hops.back().router, "r5");
  EXPECT_EQ(result.hops.size(), 2u);
}

TEST(Traceroute, HopsReportIncomingInterfaceAddresses) {
  auto net = booted(topology::figure5());
  auto lo = net.router("r4")->config().loopback->address;
  auto result = net.traceroute("r1", lo);
  ASSERT_EQ(result.hops.size(), 2u);
  // Transit hop reports an infrastructure (192.168.x) address; the final
  // hop reports the probed loopback itself.
  EXPECT_EQ(result.hops[0].address.to_string().find("192.168."), 0u);
  EXPECT_EQ(result.hops[1].address, lo);
}

TEST(Traceroute, UnreachableAddress) {
  auto net = booted(topology::figure5());
  auto result = net.traceroute("r1", *addressing::Ipv4Addr::parse("8.8.8.8"));
  EXPECT_FALSE(result.reached);
  EXPECT_TRUE(result.hops.empty());
  // Text output renders the star line.
  EXPECT_NE(result.to_text().find("* * *"), std::string::npos);
}

TEST(Traceroute, SelfTargetsResolveImmediately) {
  auto net = booted(topology::figure5());
  auto lo = net.router("r1")->config().loopback->address;
  auto result = net.traceroute("r1", lo);
  EXPECT_TRUE(result.reached);
  ASSERT_EQ(result.hops.size(), 1u);
  EXPECT_EQ(result.hops[0].router, "r1");
}

TEST(Traceroute, RttsIncreaseMonotonically) {
  auto net = booted(topology::small_internet());
  auto result = net.traceroute("as300r2", "as100r2");
  ASSERT_TRUE(result.reached);
  ASSERT_GE(result.hops.size(), 3u);
  for (std::size_t i = 1; i < result.hops.size(); ++i) {
    EXPECT_GT(result.hops[i].rtt_ms, result.hops[i - 1].rtt_ms);
  }
}

TEST(Traceroute, PaperPathShape) {
  // §6.1 / Fig. 7: as300r2 -> as100r2 crosses AS300, AS40, AS1, AS20,
  // AS100.
  auto net = booted(topology::small_internet());
  auto result = net.traceroute("as300r2", "as100r2");
  ASSERT_TRUE(result.reached);
  std::vector<std::string> routers;
  for (const auto& hop : result.hops) routers.push_back(hop.router);
  EXPECT_EQ(routers.front(), "as40r1");
  EXPECT_EQ(routers.back(), "as100r2");
  // The transit providers appear in order.
  auto find = [&routers](const std::string& r) {
    for (std::size_t i = 0; i < routers.size(); ++i) {
      if (routers[i] == r) return static_cast<int>(i);
    }
    return -1;
  };
  EXPECT_LT(find("as40r1"), find("as1r1"));
  EXPECT_LT(find("as1r1"), find("as100r2"));
}

TEST(Traceroute, UnknownRouterThrows) {
  auto net = booted(topology::figure5());
  EXPECT_THROW(net.traceroute("ghost", "r1"), std::invalid_argument);
  EXPECT_THROW(net.traceroute("r1", "ghost"), std::invalid_argument);
}

TEST(Traceroute, RequiresStartedNetwork) {
  core::Workflow wf;
  wf.load(topology::figure5()).design().compile().render();
  auto net = EmulatedNetwork::from_nidb(wf.nidb(), wf.configs());
  EXPECT_THROW(net.traceroute("r1", "r2"), std::logic_error);
}

TEST(Ping, ReachabilityMatchesTraceroute) {
  auto net = booted(topology::figure5());
  EXPECT_TRUE(net.ping("r1", net.router("r5")->config().loopback->address));
  EXPECT_FALSE(net.ping("r1", *addressing::Ipv4Addr::parse("203.0.113.99")));
}

TEST(Exec, TracerouteCommandTextOutput) {
  auto net = booted(topology::figure5());
  auto lo = net.router("r4")->config().loopback->address;
  auto out = net.exec("r1", "traceroute -naU " + lo.to_string());
  EXPECT_NE(out.find(" 1  "), std::string::npos);
  EXPECT_NE(out.find(" ms"), std::string::npos);
  EXPECT_NE(out.find(lo.to_string()), std::string::npos);
}

TEST(Exec, TracerouteByHostname) {
  auto net = booted(topology::figure5());
  auto out = net.exec("r1", "traceroute -naU r4");
  EXPECT_NE(out.find(" ms"), std::string::npos);
  auto bad = net.exec("r1", "traceroute -naU nosuchhost");
  EXPECT_NE(bad.find("unknown host"), std::string::npos);
}

TEST(Exec, UnknownCommandAndRouter) {
  auto net = booted(topology::figure5());
  EXPECT_NE(net.exec("r1", "reboot").find("unknown command"), std::string::npos);
  EXPECT_THROW(net.exec("ghost", "traceroute 1.2.3.4"), std::invalid_argument);
}

// --- Forwarding columns: the all-pairs table against walk() ------------------

TEST(ForwardingColumn, EqualsWalkOnEverySmallInternetPair) {
  auto net = booted(topology::small_internet());
  for (const auto& name : net.router_names()) {
    (void)column_towards(net, net.router(name)->config().loopback->address);
  }
}

TEST(ForwardingColumn, DownSourceNeitherSendsNorAnswers) {
  auto net = chain();
  ASSERT_TRUE(net.fail_node("a"));
  net.start();
  const auto to_c = column_towards(net, ip("10.0.0.3"));
  EXPECT_EQ(column_outcome(to_c, 0).end, WalkEnd::kDown);
  EXPECT_EQ(column_outcome(to_c, 0).at, 0u);
  EXPECT_EQ(to_c[0].hops, 0u);
  const auto to_a = column_towards(net, ip("10.0.0.1"));
  EXPECT_NE(to_a[2].end, WalkEnd::kReached);
  const auto m = net.reachability();
  EXPECT_FALSE(m.reached[0][2]);
  EXPECT_FALSE(m.reached[2][0]);
  EXPECT_TRUE(m.reached[1][2]);
}

TEST(ForwardingColumn, DownNextHopEndsTheWalkThere) {
  auto net = chain();
  ASSERT_TRUE(net.fail_node("b"));  // no start(): a still routes via b
  const auto to_c = column_towards(net, ip("10.0.0.3"));
  EXPECT_EQ(column_outcome(to_c, 0).end, WalkEnd::kDown);
  EXPECT_EQ(column_outcome(to_c, 0).at, 1u);
  EXPECT_EQ(to_c[0].hops, 0u);
}

TEST(ForwardingColumn, LoopbackLessRouterIsNeverReached) {
  auto net = chain(/*c_loopback=*/false);
  const auto m = net.reachability();
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FALSE(m.reached[i][2]) << i;
  EXPECT_TRUE(m.reached[2][0]);
  // Its interface still answers a probe.
  const auto to_c = column_towards(net, ip("10.1.1.2"));
  EXPECT_EQ(to_c[0].end, WalkEnd::kReached);
  EXPECT_EQ(to_c[0].hops, 2u);
}

TEST(ForwardingColumn, UnownedNextHopDropsAtTheCurrentRouter) {
  auto net = chain();
  FibEntry* route = route_for(net, "b", "10.0.0.3/32");
  ASSERT_NE(route, nullptr);
  route->next_hop = ip("192.0.2.1");  // owned by no router
  const auto to_c = column_towards(net, ip("10.0.0.3"));
  EXPECT_EQ(column_outcome(to_c, 0).end, WalkEnd::kDropped);
  EXPECT_EQ(column_outcome(to_c, 0).at, 1u);
  EXPECT_EQ(to_c[0].hops, 1u);
  EXPECT_EQ(column_outcome(to_c, 1).at, 1u);
  EXPECT_EQ(to_c[1].hops, 0u);
}

TEST(ForwardingColumn, TwoRouterCycleRunsOutOfTtl) {
  auto net = chain();
  FibEntry* route = route_for(net, "b", "10.0.0.3/32");
  ASSERT_NE(route, nullptr);
  route->next_hop = ip("10.1.0.1");  // back to a, which sends it to b
  const auto to_c = column_towards(net, ip("10.0.0.3"));
  for (std::size_t src : {0u, 1u}) {
    EXPECT_EQ(to_c[src].end, WalkEnd::kTtlExceeded) << src;
    EXPECT_EQ(to_c[src].hops, 30u) << src;
    EXPECT_EQ(column_outcome(to_c, src).at, src) << src;  // 30 hops: back home
  }
  EXPECT_EQ(to_c[2].end, WalkEnd::kReached);
}

TEST(ForwardingColumn, ThirtyHopsReachedThirtyOneNot) {
  graph::Graph g(false, "chain35");
  std::vector<graph::NodeId> nodes;
  for (int i = 0; i < 35; ++i) {
    graph::NodeId n = g.add_node("c" + std::to_string(i));
    g.set_node_attr(n, "asn", 1);
    g.set_node_attr(n, "device_type", "router");
    if (!nodes.empty()) g.add_edge(nodes.back(), n);
    nodes.push_back(n);
  }
  auto net = booted(g);
  const auto names = net.router_names();
  const auto index = [&](const char* name) {
    return static_cast<std::size_t>(std::find(names.begin(), names.end(), name) - names.begin());
  };
  const auto c30 = column_towards(net, net.router("c30")->config().loopback->address);
  EXPECT_EQ(c30[index("c0")].end, WalkEnd::kReached);
  EXPECT_EQ(c30[index("c0")].hops, 30u);
  const auto c31 = column_towards(net, net.router("c31")->config().loopback->address);
  EXPECT_EQ(c31[index("c0")].end, WalkEnd::kTtlExceeded);
  EXPECT_EQ(c31[index("c0")].hops, 30u);
  EXPECT_EQ(c31[index("c1")].end, WalkEnd::kReached);
  const auto m = net.reachability();
  EXPECT_TRUE(m.reached[index("c0")][index("c30")]);
  EXPECT_FALSE(m.reached[index("c0")][index("c31")]);
}

TEST(ForwardingColumn, DuplicatePrefixTakesAdminDistanceThenMetric) {
  auto net = chain();
  FibEntry* route = route_for(net, "a", "10.0.0.3/32");
  ASSERT_NE(route, nullptr);
  ASSERT_EQ(route->source, RouteSource::kOspf);
  FibEntry worse = *route;  // iBGP: higher admin distance, lower metric
  worse.source = RouteSource::kIbgp;
  worse.metric = 0;
  worse.next_hop = ip("192.0.2.1");
  FibEntry better = *route;  // same distance, lower metric, after it
  better.metric = route->metric - 1;
  better.next_hop = ip("192.0.2.2");
  auto& fib = net.router("a")->mutable_fib();
  fib.insert(fib.begin(), worse);
  fib.push_back(better);
  const auto to_c = column_towards(net, ip("10.0.0.3"));
  EXPECT_EQ(column_outcome(to_c, 0).end, WalkEnd::kDropped);  // via `better`
  EXPECT_EQ(to_c[0].hops, 0u);
  fib.pop_back();
  const auto via_ospf = column_towards(net, ip("10.0.0.3"));
  EXPECT_EQ(via_ospf[0].end, WalkEnd::kReached);
  EXPECT_EQ(via_ospf[0].hops, 2u);
}

TEST(ForwardingColumn, RequiresStartedNetwork) {
  core::Workflow wf;
  wf.load(topology::figure5()).design().compile().render();
  auto net = EmulatedNetwork::from_nidb(wf.nidb(), wf.configs());
  EXPECT_THROW((void)net.reachability(), std::logic_error);
}

TEST(OwnerOf, ResolvesInterfaceAndLoopback) {
  auto net = booted(topology::figure5());
  const auto* r3 = net.router("r3");
  EXPECT_EQ(*net.owner_of(r3->config().loopback->address), "r3");
  EXPECT_EQ(*net.owner_of(r3->config().interfaces[0].address.address), "r3");
  EXPECT_FALSE(net.owner_of(*addressing::Ipv4Addr::parse("9.9.9.9")));
}

}  // namespace
