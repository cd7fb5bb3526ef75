// The full §6.1 walkthrough: recreate the Netkit Small-Internet lab from
// its GraphML description, build the routing overlays, compile, render,
// deploy, measure with traceroute, and validate the running network
// against the design.
#include <cstdio>

#include "anm/anm.hpp"
#include "compiler/platform_compiler.hpp"
#include "deploy/deployer.hpp"
#include "design/bgp.hpp"
#include "design/igp.hpp"
#include "design/ip_allocation.hpp"
#include "measure/client.hpp"
#include "measure/validate.hpp"
#include "render/renderer.hpp"
#include "topology/builtin.hpp"
#include "topology/graphml.hpp"
#include "viz/export.hpp"

int main() {
  using namespace autonet;

  // --- Input: a GraphML file, as a graphical editor exports it ---------
  auto data = topology::load_graphml(topology::small_internet_graphml());
  std::printf("loaded %zu routers, %zu links from GraphML\n", data.node_count(),
              data.edge_count());

  // --- Abstract Network Model + design rules (paper listing, §6.1) -----
  anm::AbstractNetworkModel anm;
  auto g_in = anm["input"];
  for (auto n : data.nodes()) {
    auto node = g_in.add_node(data.node_name(n));
    for (const auto& [k, v] : data.node_attrs(n)) node.set(k, v);
  }
  for (auto e : data.edges()) {
    g_in.add_edge(data.node_name(data.edge_src(e)),
                  data.node_name(data.edge_dst(e)));
  }
  design::build_phy(anm);
  design::build_ospf(anm);   // Eq. 1
  design::build_ebgp(anm);   // Eq. 3
  design::build_ibgp_full_mesh(anm);  // Eq. 2
  design::build_ip(anm);     // §5.3 automatic allocation

  std::printf("overlays: ospf %zu edges, ebgp %zu sessions, ibgp %zu sessions\n",
              anm["ospf"].edge_count(), design::session_count(anm["ebgp"]),
              design::session_count(anm["ibgp"]));

  // --- Compile + render -----------------------------------------------
  auto nidb = compiler::platform_compiler_for("netkit").compile(anm);
  auto configs = render::render_configs(nidb);
  std::printf("rendered %zu files (%zu bytes)\n", configs.file_count(),
              configs.total_bytes());

  // --- Deploy to the emulation host -------------------------------------
  deploy::EmulationHost host("localhost");
  deploy::Deployer deployer({&host});
  auto result = deployer.deploy(configs, nidb);
  for (const deploy::DeployEvent& e : deployer.events()) {
    std::printf("  [%s] %s\n", deploy::to_string(e.phase), e.detail.c_str());
  }
  if (!result.success) {
    std::fprintf(stderr, "deployment failed\n");
    return 1;
  }

  // --- Measure: the Fig. 7 traceroute ----------------------------------
  measure::MeasurementClient client(*deployer.network(), nidb);
  auto lo = deployer.network()->router("as100r2")->config().loopback->address;
  auto trace = client.traceroute("as300r2", lo.to_string());
  std::printf("traceroute as300r2 -> as100r2:\n  [");
  for (std::size_t i = 0; i < trace.node_path.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", trace.node_path[i].c_str());
  }
  std::printf("]\n  AS path: ");
  for (auto as : trace.as_path) std::printf("%lld ", static_cast<long long>(as));
  std::printf("\n");

  // Fig. 7: export the highlight message for the visualization.
  auto highlight = viz::highlight_json(
      {trace.node_path.front(), trace.node_path.back()}, {}, {trace.node_path});
  std::printf("highlight message: %zu bytes of D3 JSON\n", highlight.size());

  // --- Validate design vs running (§5.7) ----------------------------------
  auto ospf_report = measure::validate_ospf(*deployer.network(), anm);
  auto bgp_report = measure::validate_bgp(*deployer.network(), anm);
  std::printf("validation: OSPF %s, BGP %s\n", ospf_report.ok ? "OK" : "MISMATCH",
              bgp_report.ok ? "OK" : "MISMATCH");
  return trace.reached && ospf_report.ok && bgp_report.ok ? 0 : 1;
}
