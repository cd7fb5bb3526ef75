#include <gtest/gtest.h>

#include "core/workflow.hpp"
#include "deploy/deployer.hpp"
#include "emulation/network.hpp"
#include "topology/builtin.hpp"
#include "topology/generators.hpp"

namespace {

using namespace autonet;
using namespace autonet::emulation;

EmulatedNetwork booted(const graph::Graph& input) {
  core::Workflow wf;
  wf.load(input).design().compile().render();
  auto net = EmulatedNetwork::from_nidb(wf.nidb(), wf.configs());
  net.start();
  return net;
}

TEST(Ospf, NeighborsFormOnlyIntraAs) {
  auto net = booted(topology::figure5());
  // Paper Fig. 5b: OSPF adjacencies r1-r2, r1-r3, r2-r4, r3-r4.
  EXPECT_EQ(net.router("r1")->ospf_neighbors(),
            (std::vector<std::string>{"r2", "r3"}));
  EXPECT_EQ(net.router("r4")->ospf_neighbors(),
            (std::vector<std::string>{"r2", "r3"}));
  // r5 (AS 2) forms no adjacency despite physical links to r3/r4.
  EXPECT_TRUE(net.router("r5")->ospf_neighbors().empty());
}

TEST(Ospf, ConnectedRoutesInstalled) {
  auto net = booted(topology::figure5());
  const auto* r1 = net.router("r1");
  std::size_t connected = 0;
  for (const auto& e : r1->fib()) {
    if (e.source == RouteSource::kConnected) ++connected;
  }
  // 2 interfaces + loopback.
  EXPECT_EQ(connected, 3u);
}

TEST(Ospf, LoopbacksReachableWithinAs) {
  auto net = booted(topology::figure5());
  const auto* r1 = net.router("r1");
  for (const char* other : {"r2", "r3", "r4"}) {
    auto lo = net.router(other)->config().loopback;
    ASSERT_TRUE(lo);
    const auto* route = r1->lookup(lo->address);
    ASSERT_NE(route, nullptr) << other;
    EXPECT_EQ(route->source, RouteSource::kOspf);
    EXPECT_EQ(route->prefix.length(), 32u);
  }
}

TEST(Ospf, CostsSteerPathSelection) {
  // Square r1-r2-r4 / r1-r3-r4 with an expensive r1-r2 leg: traffic to
  // r4 must go via r3.
  auto input = topology::figure5();
  auto e = input.find_edge(input.find_node("r1"), input.find_node("r2"));
  input.set_edge_attr(e, "ospf_cost", 100);
  auto net = booted(input);
  const auto* r1 = net.router("r1");
  auto lo4 = net.router("r4")->config().loopback->address;
  const auto* route = r1->lookup(lo4);
  ASSERT_NE(route, nullptr);
  // Next hop is r3's interface on the r1-r3 link.
  auto owner = net.owner_of(*route->next_hop);
  ASSERT_TRUE(owner);
  EXPECT_EQ(*owner, "r3");
  EXPECT_EQ(route->metric, 2.0);  // 1 + 1 via r3
}

TEST(Ospf, EqualCostPicksDeterministically) {
  auto net1 = booted(topology::figure5());
  auto net2 = booted(topology::figure5());
  auto route1 = net1.router("r1")->lookup(
      net1.router("r4")->config().loopback->address);
  auto route2 = net2.router("r1")->lookup(
      net2.router("r4")->config().loopback->address);
  ASSERT_NE(route1, nullptr);
  ASSERT_NE(route2, nullptr);
  EXPECT_EQ(route1->next_hop, route2->next_hop);
}

TEST(Ospf, MultiAsScaleAllIntraReachable) {
  topology::MultiAsOptions opts;
  opts.as_count = 3;
  opts.max_routers_per_as = 5;
  opts.seed = 11;
  auto input = topology::make_multi_as(opts);
  auto net = booted(input);
  // Every router reaches every same-AS loopback via OSPF.
  core::Workflow wf;
  wf.load(input);
  for (const auto& a : wf.anm()["phy"].routers()) {
    for (const auto& b : wf.anm()["phy"].routers()) {
      if (a.name() == b.name() || a.asn() != b.asn()) continue;
      const auto* ra = net.router(a.name());
      auto lo = net.router(b.name())->config().loopback;
      ASSERT_TRUE(lo);
      const auto* route = ra->lookup(lo->address);
      ASSERT_NE(route, nullptr) << a.name() << " -> " << b.name();
      EXPECT_NE(route->source, RouteSource::kIbgp);
    }
  }
}

TEST(Ospf, FromNetkitTreeBootsIdentically) {
  // The strictest fidelity path: a deployment boots the network from the
  // Netkit tree its host extracted, and it runs as a boot from the
  // renderer's tree does.
  core::Workflow wf;
  wf.load(topology::small_internet()).design().compile().render();
  deploy::EmulationHost host("emuhost");
  deploy::Deployer deployer({&host});
  ASSERT_TRUE(deployer.deploy(wf.configs(), wf.nidb()).success);
  EXPECT_EQ(host.filesystem(), wf.configs());
  const EmulatedNetwork& from_files = *deployer.network();
  auto from_nidb = EmulatedNetwork::from_nidb(wf.nidb(), wf.configs());
  from_nidb.start();
  EXPECT_EQ(from_files.router_count(), from_nidb.router_count());
  for (const auto& name : from_files.router_names()) {
    EXPECT_EQ(from_files.router(name)->ospf_neighbors(),
              from_nidb.router(name)->ospf_neighbors())
        << name;
    EXPECT_EQ(from_files.router(name)->fib().size(),
              from_nidb.router(name)->fib().size())
        << name;
  }
}

TEST(Ospf, ShowNeighborsCommand) {
  auto net = booted(topology::figure5());
  auto out = net.exec("r1", "show ip ospf neighbor");
  EXPECT_NE(out.find("# r2"), std::string::npos);
  EXPECT_NE(out.find("# r3"), std::string::npos);
  EXPECT_EQ(out.find("# r5"), std::string::npos);
}

}  // namespace
