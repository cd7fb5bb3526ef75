// Cross-module integration: the full §6.1 walkthrough pieces chained by
// hand (not through the Workflow façade), the NREN-scale model, service
// overlays at scale, and the GraphML input path.
#include <gtest/gtest.h>

#include "anm/anm.hpp"
#include "compiler/platform_compiler.hpp"
#include "deploy/deployer.hpp"
#include "design/bgp.hpp"
#include "design/igp.hpp"
#include "design/ip_allocation.hpp"
#include "design/services.hpp"
#include "emulation/network.hpp"
#include "measure/client.hpp"
#include "measure/validate.hpp"
#include "render/renderer.hpp"
#include "topology/builtin.hpp"
#include "topology/generators.hpp"
#include "topology/graphml.hpp"
#include "core/workflow.hpp"

namespace {

using namespace autonet;

TEST(Walkthrough, ManualPipelineMatchesSection61) {
  // §6.1 step by step, starting from the GraphML export as a user would.
  auto data = topology::load_graphml(topology::small_internet_graphml());

  anm::AbstractNetworkModel anm;
  auto g_in = anm["input"];
  for (auto n : data.nodes()) {
    auto node = g_in.add_node(data.node_name(n));
    for (const auto& [k, v] : data.node_attrs(n)) node.set(k, v);
  }
  for (auto e : data.edges()) {
    g_in.add_edge(data.node_name(data.edge_src(e)), data.node_name(data.edge_dst(e)));
  }
  design::build_phy(anm);

  // The three routing overlays, two lines each (paper listing).
  design::build_ospf(anm);
  design::build_ebgp(anm);
  design::build_ibgp_full_mesh(anm);
  design::build_ip(anm);

  EXPECT_EQ(anm["ospf"].edge_count(), 10u);
  EXPECT_EQ(design::session_count(anm["ebgp"]), 8u);

  auto nidb = compiler::platform_compiler_for("netkit").compile(anm);
  auto configs = render::render_configs(nidb);
  EXPECT_GT(configs.file_count(), 100u);

  deploy::EmulationHost host("localhost");
  deploy::Deployer deployer({&host});
  auto result = deployer.deploy(configs, nidb);
  ASSERT_TRUE(result.success);

  measure::MeasurementClient client(*deployer.network(), nidb);
  auto lo = deployer.network()->router("as100r2")->config().loopback->address;
  auto trace = client.traceroute("as300r2", lo.to_string());
  EXPECT_TRUE(trace.reached);
  EXPECT_EQ(trace.as_path.front(), 300);
  EXPECT_EQ(trace.as_path.back(), 100);

  EXPECT_TRUE(measure::validate_ospf(*deployer.network(), anm).ok);
  EXPECT_TRUE(measure::validate_bgp(*deployer.network(), anm).ok);
}

TEST(NrenScale, DesignCompileRenderAtPaperScale) {
  // §3.2: 42 ASes / 1158 routers / 1470 links.
  core::Workflow wf;
  wf.load(topology::make_nren_model()).design().compile().render();
  EXPECT_EQ(wf.nidb().device_count(), 1158u);
  auto stats = render::stats_of(wf.nidb(), wf.configs());
  // The rendered corpus is thousands of files and megabytes of text
  // (paper: 16,144 items / 20 MB for its richer template set).
  EXPECT_GT(stats.files, 9000u);
  EXPECT_GT(stats.items, 11000u);
  EXPECT_GT(stats.bytes, 3u * 1024 * 1024);
}

TEST(NrenScale, ReducedModelRunsEndToEnd) {
  topology::NrenOptions opts;
  opts.as_count = 8;
  opts.router_count = 80;
  opts.link_count = 100;
  core::WorkflowOptions wo;
  wo.ibgp = "rr-auto";  // keep iBGP linear at scale (§7.1)
  core::Workflow wf(wo);
  wf.run(topology::make_nren_model(opts));
  ASSERT_TRUE(wf.deploy_result().success);
  EXPECT_TRUE(wf.deploy_result().convergence.converged);
  EXPECT_TRUE(wf.validate_ospf().ok);

  // Cross-AS reachability spot check via measurement.
  auto& net = wf.network();
  auto names = net.router_names();
  auto lo = net.router(names.back())->config().loopback->address;
  auto trace = wf.measurement().traceroute(names.front(), lo.to_string());
  EXPECT_TRUE(trace.reached);
}

TEST(Services, RpkiDeploymentWithServers) {
  // §3.3: routers + service servers in one experiment.
  auto input = topology::small_internet();
  topology::attach_servers(input, 6, 17, "ca");
  // Mark the service hierarchy: first server is the trust-anchor CA,
  // the rest caches fed by it.
  input.set_node_attr(input.find_node("ca1"), "rpki_role", "ca");
  for (int i = 2; i <= 6; ++i) {
    input.set_node_attr(input.find_node("ca" + std::to_string(i)), "rpki_role",
                        "cache");
    auto e = input.add_edge("ca1", "ca" + std::to_string(i));
    input.set_edge_attr(e, "relation", "feeds");
    input.set_edge_attr(e, "type", "rpki");
  }

  core::WorkflowOptions opts;
  opts.enable_rpki = true;
  opts.enable_dns = true;
  core::Workflow wf(opts);
  wf.run(input);
  ASSERT_TRUE(wf.deploy_result().success);
  EXPECT_EQ(wf.nidb().device_count(), 20u);

  // The rendered RPKI config for the trust anchor names its children.
  const auto* conf = wf.configs().get("localhost/netkit/ca1/etc/rpki.conf");
  ASSERT_NE(conf, nullptr);
  EXPECT_NE(conf->find("role ca"), std::string::npos);
  EXPECT_NE(conf->find("trust-anchor yes"), std::string::npos);
  EXPECT_NE(conf->find("feeds ca2"), std::string::npos);

  // ROAs cover every AS block.
  auto roas = design::derive_roas(wf.anm());
  EXPECT_GE(roas.size(), 3u);
}

TEST(GraphmlInput, YEdStyleFileDrivesThePipeline) {
  // A hand-written editor export with asn annotations only.
  const char* text = R"(<graphml>
  <key id="d0" for="node" attr.name="asn" attr.type="int"/>
  <graph edgedefault="undirected">
    <node id="left"><data key="d0">1</data></node>
    <node id="middle"><data key="d0">1</data></node>
    <node id="right"><data key="d0">2</data></node>
    <edge source="left" target="middle"/>
    <edge source="middle" target="right"/>
  </graph>
</graphml>)";
  core::Workflow wf;
  wf.run(topology::load_graphml(text));  // device_type defaults to router
  ASSERT_TRUE(wf.deploy_result().success);
  auto trace = wf.measurement().traceroute(
      "left", wf.network().router("right")->config().loopback->address.to_string());
  EXPECT_TRUE(trace.reached);
  EXPECT_EQ(trace.as_path, (std::vector<std::int64_t>{1, 2}));
}

TEST(MultiPlatform, SameModelAcrossPlatformsGivesSamePaths) {
  // §7.2's methodological point: the same input model runs on all four
  // target platforms; converged forwarding must agree.
  std::map<std::string, std::vector<std::string>> paths;
  for (const char* platform : {"netkit", "dynagen", "junosphere"}) {
    core::WorkflowOptions opts;
    opts.platform = platform;
    core::Workflow wf(opts);
    wf.run(topology::small_internet());
    ASSERT_TRUE(wf.deploy_result().success) << platform;
    auto lo = wf.network().router("as100r2")->config().loopback->address;
    auto trace = wf.measurement().traceroute("as300r2", lo.to_string());
    ASSERT_TRUE(trace.reached) << platform;
    paths[platform] = trace.node_path;
  }
  EXPECT_EQ(paths["netkit"], paths["dynagen"]);
  EXPECT_EQ(paths["netkit"], paths["junosphere"]);
}

}  // namespace
