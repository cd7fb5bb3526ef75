#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/workflow.hpp"
#include "emulation/config_parse.hpp"
#include "topology/builtin.hpp"

namespace {

using namespace autonet;
using namespace autonet::emulation;

render::ConfigTree rendered(const std::string& platform) {
  core::WorkflowOptions opts;
  opts.platform = platform;
  core::Workflow wf(opts);
  wf.load(topology::small_internet()).design().compile().render();
  return wf.configs();
}

/// The stream tokenizer tokenize() replaced: the reference it must equal.
std::vector<std::string> stream_tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in{line};
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

TEST(Tokenize, EqualsTheStreamOnEveryByteValue) {
  std::string every;
  for (int b = 0; b < 256; ++b) {
    const std::string c(1, static_cast<char>(b));
    every += c;
    for (const std::string& line :
         {c, "ip" + c + "ospf", c + c + "cost" + c + "10" + c, "a b" + c + "\tc" + c + " "}) {
      EXPECT_EQ(tokenize(line), stream_tokenize(line)) << "byte " << b;
    }
  }
  EXPECT_EQ(tokenize(every), stream_tokenize(every));
  EXPECT_EQ(tokenize(every + every), stream_tokenize(every + every));
}

TEST(Tokenize, EqualsTheStreamOnRandomLines) {
  using namespace std::string_literals;
  const std::string common = " \t\n\v\f\r\0ab1./!"s;
  std::mt19937_64 rng(2013);
  for (int i = 0; i < 20000; ++i) {
    std::string line(rng() % 48, '\0');
    for (char& c : line) {
      c = rng() % 4 == 0 ? static_cast<char>(rng() % 256) : common[rng() % common.size()];
    }
    ASSERT_EQ(tokenize(line), stream_tokenize(line)) << "line " << i;
  }
}

TEST(QuaggaParse, RoundTripFromRenderedConfigs) {
  auto tree = rendered("netkit");
  auto cfg = parse_quagga_device(tree, "localhost/netkit/as100r1", "as100r1");
  EXPECT_EQ(cfg.hostname, "as100r1");
  EXPECT_EQ(cfg.syntax, "quagga");
  EXPECT_FALSE(cfg.igp_tiebreak);  // §7.2 Quagga default
  EXPECT_EQ(cfg.interfaces.size(), 3u);
  ASSERT_TRUE(cfg.loopback);
  EXPECT_EQ(cfg.loopback->prefix.length(), 32u);
  EXPECT_TRUE(cfg.ospf_enabled);
  EXPECT_EQ(cfg.ospf_networks.size(), 3u);
  ASSERT_TRUE(cfg.router_id);
  EXPECT_TRUE(cfg.bgp_enabled);
  EXPECT_EQ(cfg.asn, 100);
  EXPECT_EQ(cfg.bgp_neighbors.size(), 3u);  // 2 iBGP + 1 eBGP
  EXPECT_FALSE(cfg.bgp_networks.empty());
}

TEST(QuaggaParse, InterfaceCostsApplied) {
  auto input = topology::figure5();
  auto e = input.find_edge(input.find_node("r1"), input.find_node("r2"));
  input.set_edge_attr(e, "ospf_cost", 77);
  core::Workflow wf;
  wf.load(input).design().compile().render();
  auto cfg = parse_quagga_device(wf.configs(), "localhost/netkit/r1", "r1");
  bool found = false;
  for (const auto& iface : cfg.interfaces) {
    if (iface.ospf_cost == 77) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(QuaggaParse, MissingStartupThrows) {
  render::ConfigTree empty;
  EXPECT_THROW(parse_quagga_device(empty, "nowhere", "x"), ConfigError);
}

TEST(IosParse, RoundTripFromRenderedConfigs) {
  auto tree = rendered("dynagen");
  const auto* text = tree.get("localhost/dynagen/as100r1/startup-config.cfg");
  ASSERT_NE(text, nullptr);
  auto cfg = parse_ios_config(*text);
  EXPECT_EQ(cfg.hostname, "as100r1");
  EXPECT_TRUE(cfg.igp_tiebreak);
  EXPECT_EQ(cfg.interfaces.size(), 3u);
  EXPECT_EQ(cfg.interfaces[0].id, "FastEthernet0/0");
  ASSERT_TRUE(cfg.loopback);
  EXPECT_TRUE(cfg.ospf_enabled);
  // Wildcard-mask network statements round-trip to the same prefixes.
  EXPECT_EQ(cfg.ospf_networks.size(), 3u);
  EXPECT_TRUE(cfg.bgp_enabled);
  EXPECT_EQ(cfg.asn, 100);
}

TEST(IosParse, WildcardToPrefix) {
  auto cfg = parse_ios_config(
      "hostname r1\n!\nrouter ospf 1\n network 10.1.2.0 0.0.0.255 area 0\n!\nend\n");
  ASSERT_EQ(cfg.ospf_networks.size(), 1u);
  EXPECT_EQ(cfg.ospf_networks[0].network.to_string(), "10.1.2.0/24");
}

TEST(IosParse, BgpMaskNetworks) {
  auto cfg = parse_ios_config(
      "hostname r1\n!\nrouter bgp 7\n network 10.0.0.0 mask 255.255.0.0\n!\nend\n");
  ASSERT_EQ(cfg.bgp_networks.size(), 1u);
  EXPECT_EQ(cfg.bgp_networks[0].to_string(), "10.0.0.0/16");
  EXPECT_EQ(cfg.asn, 7);
}

TEST(JunosParse, RoundTripFromRenderedConfigs) {
  auto tree = rendered("junosphere");
  const auto* text = tree.get("localhost/junosphere/as100r1/juniper.conf");
  ASSERT_NE(text, nullptr);
  auto cfg = parse_junos_config(*text);
  EXPECT_EQ(cfg.hostname, "as100r1");
  EXPECT_TRUE(cfg.igp_tiebreak);
  EXPECT_EQ(cfg.interfaces.size(), 3u);
  EXPECT_EQ(cfg.interfaces[0].id, "em0");
  ASSERT_TRUE(cfg.loopback);
  EXPECT_TRUE(cfg.ospf_enabled);
  // Only intra-AS interfaces + loopback run OSPF.
  EXPECT_EQ(cfg.ospf_networks.size(), 3u);
  EXPECT_TRUE(cfg.bgp_enabled);
  EXPECT_EQ(cfg.asn, 100);
  EXPECT_EQ(cfg.bgp_neighbors.size(), 3u);
  // The static-route origination round-trips.
  EXPECT_FALSE(cfg.bgp_networks.empty());
  // iBGP neighbors inferred from the internal group.
  std::size_t internal = 0;
  for (const auto& n : cfg.bgp_neighbors) {
    if (n.remote_as == 100) {
      ++internal;
      EXPECT_TRUE(n.update_source_loopback);
    }
  }
  EXPECT_EQ(internal, 2u);
}

TEST(CbgpParse, NetworkScriptRoundTrip) {
  auto tree = rendered("cbgp");
  const auto* script = tree.get("network.cli");
  ASSERT_NE(script, nullptr);
  auto net = parse_cbgp_script(*script);
  EXPECT_EQ(net.routers.size(), 14u);
  EXPECT_EQ(net.links.size(), 18u);
  for (const auto& r : net.routers) {
    EXPECT_TRUE(r.bgp_enabled);
    EXPECT_TRUE(r.igp_tiebreak);
    EXPECT_GE(r.igp_domain, 0);
    ASSERT_TRUE(r.loopback);
  }
  // Link weights came from the igp-weight statements.
  for (const auto& link : net.links) EXPECT_GE(link.weight, 1);
}

TEST(CbgpParse, HandCraftedScript) {
  auto net = parse_cbgp_script(R"(# test
net add node 10.0.0.1
net add node 10.0.0.2
net add domain 1 igp
net node 10.0.0.1 domain 1
net node 10.0.0.2 domain 1
net add link 10.0.0.1 10.0.0.2
net link 10.0.0.1 10.0.0.2 igp-weight --bidir 5
bgp add router 1 10.0.0.1
bgp router 10.0.0.1
  add network 192.0.2.0/24
  add peer 1 10.0.0.2
  peer 10.0.0.2 rr-client
  peer 10.0.0.2 up
  exit
net domain 1 compute
sim run
)");
  ASSERT_EQ(net.routers.size(), 2u);
  ASSERT_EQ(net.links.size(), 1u);
  EXPECT_EQ(net.links[0].weight, 5);
  const auto& r1 = net.routers[0];
  EXPECT_EQ(r1.hostname, "10.0.0.1");
  EXPECT_EQ(r1.igp_domain, 1);
  ASSERT_EQ(r1.bgp_networks.size(), 1u);
  ASSERT_EQ(r1.bgp_neighbors.size(), 1u);
  EXPECT_TRUE(r1.bgp_neighbors[0].rr_client);
  EXPECT_TRUE(r1.bgp_neighbors[0].update_source_loopback);
}

TEST(RouterConfigHelpers, InterfaceLookup) {
  RouterConfig cfg;
  cfg.interfaces.push_back(
      {"eth1",
       {addressing::Ipv4Addr(10, 0, 0, 1),
        *addressing::Ipv4Prefix::parse("10.0.0.0/30")},
       3});
  EXPECT_NE(cfg.interface("eth1"), nullptr);
  EXPECT_EQ(cfg.interface("eth9"), nullptr);
}

}  // namespace
