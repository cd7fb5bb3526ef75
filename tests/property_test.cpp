// Cross-cutting properties swept over randomly generated multi-AS
// topologies: the control plane and data plane must agree, measured AS
// paths must be loop-free and anchored, and the whole pipeline must be
// deterministic.
#include <gtest/gtest.h>

#include <set>

#include "core/workflow.hpp"
#include "graph/algorithms.hpp"
#include "graph/transforms.hpp"
#include "topology/generators.hpp"

namespace {

using namespace autonet;

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static graph::Graph input_for(std::uint64_t seed) {
    topology::MultiAsOptions opts;
    opts.as_count = 4;
    opts.min_routers_per_as = 2;
    opts.max_routers_per_as = 6;
    opts.links_per_as = 2;
    opts.seed = seed;
    return topology::make_multi_as(opts);
  }
};

TEST_P(PipelineProperty, TracerouteMatchesIgpShortestPathWithinAs) {
  const auto input = input_for(GetParam());
  core::Workflow wf;
  wf.run(input);
  ASSERT_TRUE(wf.deploy_result().success);
  auto& net = wf.network();

  // With unit costs, the emulated hop count within an AS must equal the
  // graph-theoretic shortest path over that AS's subgraph.
  auto groups = graph::group_by(input, "asn");
  for (const auto& [asn, members] : groups) {
    // Build the AS subgraph.
    graph::Graph sub;
    std::set<std::string> names;
    for (auto n : members) names.insert(input.node_name(n));
    for (auto n : members) sub.add_node(input.node_name(n));
    for (auto e : input.edges()) {
      std::string u = input.node_name(input.edge_src(e));
      std::string v = input.node_name(input.edge_dst(e));
      if (names.contains(u) && names.contains(v)) sub.add_edge(u, v);
    }
    auto nodes = sub.nodes();
    if (nodes.size() < 2) continue;
    auto sp = graph::dijkstra(sub, nodes[0]);
    const std::string src = sub.node_name(nodes[0]);
    for (std::size_t i = 1; i < nodes.size(); ++i) {
      const std::string dst = sub.node_name(nodes[i]);
      auto trace = net.traceroute(src, dst);
      ASSERT_TRUE(trace.reached) << src << " -> " << dst;
      EXPECT_EQ(static_cast<double>(trace.hops.size()), sp.dist[nodes[i]])
          << src << " -> " << dst;
    }
  }
}

TEST_P(PipelineProperty, MeasuredAsPathsAreLoopFreeAndAnchored) {
  const auto input = input_for(GetParam());
  core::Workflow wf;
  wf.run(input);
  auto client = wf.measurement();
  auto names = wf.network().router_names();
  const auto* dst = wf.network().router(names.back());
  ASSERT_TRUE(dst->config().loopback);
  for (const auto& src : names) {
    auto trace =
        client.traceroute(src, dst->config().loopback->address.to_string());
    ASSERT_TRUE(trace.reached) << src;
    ASSERT_FALSE(trace.as_path.empty());
    EXPECT_EQ(trace.as_path.front(), client.asn_of(src));
    EXPECT_EQ(trace.as_path.back(), dst->asn());
    std::set<std::int64_t> seen(trace.as_path.begin(), trace.as_path.end());
    EXPECT_EQ(seen.size(), trace.as_path.size()) << "AS loop from " << src;
  }
}

TEST_P(PipelineProperty, RenderingIsDeterministic) {
  const auto input = input_for(GetParam());
  auto render_once = [&input]() {
    core::Workflow wf;
    wf.load(input).design().compile().render();
    return wf.configs();
  };
  EXPECT_EQ(render_once(), render_once());
}

TEST_P(PipelineProperty, StaticCheckAndValidationBothClean) {
  const auto input = input_for(GetParam());
  core::Workflow wf;
  wf.run(input);
  const auto report = verify::run_lint({.nidb = &wf.nidb()});
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(wf.validate_ospf().ok) << wf.validate_ospf().to_string();
}

TEST_P(PipelineProperty, ConvergedStateIsAFixpoint) {
  const auto input = input_for(GetParam());
  core::Workflow wf;
  wf.run(input);
  ASSERT_TRUE(wf.deploy_result().convergence.converged);
  auto& net = wf.network();
  auto snapshot = [&net]() {
    std::string out;
    for (const auto& name : net.router_names()) {
      for (const auto& [prefix, route] : net.router(name)->bgp_best()) {
        out += name + "|" + route.fingerprint() + "\n";
      }
    }
    return out;
  };
  auto before = snapshot();
  net.start();
  EXPECT_EQ(before, snapshot());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Values(3u, 11u, 29u, 47u, 83u));

}  // namespace
