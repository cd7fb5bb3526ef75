#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/workflow.hpp"
#include "emulation/network.hpp"
#include "topology/builtin.hpp"
#include "topology/generators.hpp"

namespace {

using namespace autonet;
using namespace autonet::emulation;

EmulatedNetwork booted(const graph::Graph& input,
                       const core::WorkflowOptions& opts = {}) {
  core::Workflow wf(opts);
  wf.load(input).design().compile().render();
  auto net = EmulatedNetwork::from_nidb(wf.nidb(), wf.configs());
  net.start();
  return net;
}

TEST(Bgp, ConvergesOnSmallInternet) {
  auto net = booted(topology::small_internet());
  const auto& report = net.last_report();
  EXPECT_TRUE(report.converged);
  EXPECT_FALSE(report.oscillating);
  EXPECT_GT(report.updates, 0u);
  EXPECT_LE(report.rounds, 16u);
}

TEST(Bgp, EveryRouterLearnsEveryAsBlock) {
  auto net = booted(topology::small_internet());
  // Each of the 7 ASes advertises blocks; every router must hold a BGP
  // route towards every *other* AS's loopback block.
  for (const auto& src : net.router_names()) {
    for (const auto& dst : net.router_names()) {
      const auto* s = net.router(src);
      const auto* d = net.router(dst);
      if (s->asn() == d->asn()) continue;
      auto lo = d->config().loopback;
      ASSERT_TRUE(lo);
      const auto* route = s->lookup(lo->address);
      ASSERT_NE(route, nullptr) << src << " has no route to " << dst;
      EXPECT_TRUE(route->source == RouteSource::kEbgp ||
                  route->source == RouteSource::kIbgp)
          << src << " -> " << dst;
    }
  }
}

TEST(Bgp, AsPathLoopPreventionBlocksOwnAs) {
  auto net = booted(topology::small_internet());
  // No router may hold a BGP route whose AS path contains its own AS.
  for (const auto& name : net.router_names()) {
    const auto* r = net.router(name);
    const auto& bgp = r->bgp();
    for (std::size_t k = 0; k < bgp.rib_in.size(); ++k) {
      for (const auto& entry : bgp.rib_in[k]) {
        for (auto as : entry.route.as_path) {
          EXPECT_NE(as, r->asn()) << name << " " << (*bgp.prefixes)[k];
        }
      }
    }
  }
}

TEST(Bgp, EbgpPreferredOverIbgp) {
  // as20r3 hears AS1's block directly (eBGP to as1r1) and via iBGP from
  // peers; the eBGP route must win.
  auto net = booted(topology::small_internet());
  const auto* r = net.router("as20r3");
  auto lo = net.router("as1r1")->config().loopback->address;
  const auto* route = r->lookup(lo);
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->source, RouteSource::kEbgp);
}

TEST(Bgp, ShortestAsPathWins) {
  auto net = booted(topology::small_internet());
  // as1r1's best route to AS300's block: direct customers as30r1/as40r1
  // give a 2-hop path (30,300)/(40,300) vs longer alternatives.
  const auto* r = net.router("as1r1");
  auto lo = net.router("as300r1")->config().loopback->address;
  const auto* route = r->lookup(lo);
  ASSERT_NE(route, nullptr);
  // Installed metric records the AS-path length.
  EXPECT_EQ(route->metric, 2.0);
}

TEST(Bgp, IbgpFullMeshSessionsEstablished) {
  auto net = booted(topology::small_internet());
  auto summary = net.exec("as300r1", "show ip bgp summary");
  // 3 iBGP peers + 1 eBGP peer (as200r1).
  EXPECT_EQ(std::count(summary.begin(), summary.end(), '\n'), 5);
  EXPECT_NE(summary.find("Established"), std::string::npos);
}

TEST(Bgp, RouteReflectionPropagatesToAllClients) {
  // Star AS with a central RR and 4 clients + one external origin: all
  // clients must learn the external prefix via the RR.
  auto input = topology::make_star(5);
  input.set_node_attr(input.find_node("as1r1"), "rr", true);
  auto origin = input.add_node("ext1");
  input.set_node_attr(origin, "device_type", "router");
  input.set_node_attr(origin, "asn", 65001);
  input.set_node_attr(origin, "advertise_prefix", "198.51.100.0/24");
  input.add_edge("ext1", "as1r5");

  core::WorkflowOptions opts;
  opts.ibgp = "rr";
  auto net = booted(input, opts);
  EXPECT_TRUE(net.last_report().converged);
  auto dst = *addressing::Ipv4Addr::parse("198.51.100.1");
  for (const char* client : {"as1r2", "as1r3", "as1r4"}) {
    const auto* route = net.router(client)->lookup(dst);
    ASSERT_NE(route, nullptr) << client;
    EXPECT_EQ(route->source, RouteSource::kIbgp);
  }
}

TEST(Bgp, ReflectorLoopPreventionViaClusterList) {
  // Two RRs reflecting to each other and to shared clients must still
  // converge (cluster-list stops the loop).
  auto input = topology::make_full_mesh(4);
  input.set_node_attr(input.find_node("as1r1"), "rr", true);
  input.set_node_attr(input.find_node("as1r2"), "rr", true);
  auto origin = input.add_node("ext1");
  input.set_node_attr(origin, "device_type", "router");
  input.set_node_attr(origin, "asn", 65001);
  input.set_node_attr(origin, "advertise_prefix", "198.51.100.0/24");
  input.add_edge("ext1", "as1r3");
  core::WorkflowOptions opts;
  opts.ibgp = "rr";
  auto net = booted(input, opts);
  EXPECT_TRUE(net.last_report().converged);
  auto dst = *addressing::Ipv4Addr::parse("198.51.100.1");
  for (const char* r : {"as1r1", "as1r2", "as1r4"}) {
    EXPECT_NE(net.router(r)->lookup(dst), nullptr) << r;
  }
}

TEST(Bgp, WithdrawOnBetterPathChange) {
  // A converged network's state is a fixpoint: re-running start() yields
  // identical selections (idempotence of the decision process).
  core::Workflow wf;
  wf.load(topology::small_internet()).design().compile().render();
  auto net = EmulatedNetwork::from_nidb(wf.nidb(), wf.configs());
  // bgp_best() is a view of the current state: snapshot it.
  auto selections = [&net]() {
    std::map<std::string, std::string> out;
    for (const auto& [prefix, route] : net.router("as300r2")->bgp_best()) {
      out[prefix] = route.fingerprint();
    }
    return out;
  };
  net.start();
  const auto first = selections();
  net.start();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, selections());
}

TEST(Bgp, MultiOriginAnycastPicksNearestExit) {
  // Both r5 (AS2, adjacent to r3/r4) and a far origin advertise the same
  // prefix; r3 should pick its direct eBGP exit.
  auto input = topology::figure5();
  input.set_node_attr(input.find_node("r5"), "advertise_prefix",
                      "203.0.113.0/24");
  auto far = input.add_node("r6");
  input.set_node_attr(far, "device_type", "router");
  input.set_node_attr(far, "asn", 3);
  input.set_node_attr(far, "advertise_prefix", "203.0.113.0/24");
  input.add_edge("r6", "r1");
  auto net = booted(input);
  EXPECT_TRUE(net.last_report().converged);
  auto dst = *addressing::Ipv4Addr::parse("203.0.113.9");
  const auto* route = net.router("r3")->lookup(dst);
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->source, RouteSource::kEbgp);
  auto owner = net.owner_of(*route->next_hop);
  ASSERT_TRUE(owner);
  EXPECT_EQ(*owner, "r5");
}

TEST(Bgp, NoBgpNetworkStillComputesIgp) {
  // An AS-internal topology with no eBGP at all: BGP converges trivially
  // (nothing to exchange), OSPF still populates the FIBs.
  auto net = booted(topology::make_ring(4));
  EXPECT_TRUE(net.last_report().converged);
  const auto* r = net.router("as1r1");
  EXPECT_GT(r->fib().size(), 2u);
}

}  // namespace
