#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/workflow.hpp"
#include "design/bgp.hpp"
#include "fuzz/scenario.hpp"
#include "topology/builtin.hpp"
#include "topology/generators.hpp"

namespace {

using namespace autonet;
using anm::AbstractNetworkModel;

AbstractNetworkModel load(const graph::Graph& input) {
  core::Workflow wf;
  wf.load(input);
  return std::move(wf.anm());
}

std::set<std::string> directed_edges(const anm::OverlayGraph& g) {
  std::set<std::string> out;
  for (const auto& e : g.edges()) out.insert(e.src().name() + ">" + e.dst().name());
  return out;
}

TEST(BuildEbgp, Equation3ExactEdgeSet) {
  auto anm = load(topology::figure5());
  auto g_ebgp = design::build_ebgp(anm);
  // Paper: E_ebgp = {(r3,r5),(r4,r5)}, sessions bidirectional.
  EXPECT_EQ(directed_edges(g_ebgp),
            (std::set<std::string>{"r3>r5", "r5>r3", "r4>r5", "r5>r4"}));
  EXPECT_EQ(design::session_count(g_ebgp), 2u);
}

TEST(BuildIbgpMesh, Equation2ExactEdgeSet) {
  auto anm = load(topology::figure5());
  auto g_ibgp = design::build_ibgp_full_mesh(anm);
  // Paper: E_ibgp has all same-AS ordered pairs: 4x3 = 12 directed edges
  // (6 sessions) in AS1; r5 alone in AS2.
  EXPECT_EQ(g_ibgp.edge_count(), 12u);
  EXPECT_EQ(design::session_count(g_ibgp), 6u);
  auto edges = directed_edges(g_ibgp);
  EXPECT_TRUE(edges.contains("r1>r4"));  // not physically adjacent
  EXPECT_TRUE(edges.contains("r4>r1"));
  EXPECT_FALSE(edges.contains("r1>r5"));  // different AS
}

using EdgeSequence = std::vector<std::pair<std::string, std::string>>;

EdgeSequence edge_sequence(const anm::OverlayGraph& g) {
  EdgeSequence out;
  for (const auto& e : g.edges()) out.emplace_back(e.src().name(), e.dst().name());
  return out;
}

/// Eq. 2 as the scan over every ordered router pair: the reference the
/// mesh must reproduce edge for edge, in the same order.
EdgeSequence pairwise_mesh(AbstractNetworkModel& anm) {
  EdgeSequence out;
  const auto rtrs = anm["phy"].routers();
  for (const auto& s : rtrs) {
    for (const auto& t : rtrs) {
      if (s.name() != t.name() && s.asn() == t.asn()) out.emplace_back(s.name(), t.name());
    }
  }
  return out;
}

TEST(BuildIbgpMesh, NrenEdgesInPairwiseOrder) {
  auto anm = load(topology::make_nren_model());
  const EdgeSequence mesh = edge_sequence(design::build_ibgp_full_mesh(anm));
  EXPECT_EQ(mesh.size(), 31122u);
  EXPECT_TRUE(mesh == pairwise_mesh(anm));
}

TEST(BuildIbgpMesh, FuzzDesignEdgesInPairwiseOrder) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    auto anm = load(fuzz::generate_scenario(seed, 20).graph);
    EXPECT_EQ(edge_sequence(design::build_ibgp_full_mesh(anm)), pairwise_mesh(anm))
        << "seed " << seed;
  }
}

TEST(BuildIbgpMesh, QuadraticSessionGrowth) {
  // §7.1: full mesh needs O(n^2) sessions.
  for (std::size_t n : {4u, 8u, 16u}) {
    auto anm = load(topology::make_full_mesh(n));
    auto g = design::build_ibgp_full_mesh(anm);
    EXPECT_EQ(design::session_count(g), n * (n - 1) / 2);
    anm.remove_overlay("ibgp");
  }
}

TEST(BuildIbgpRr, AttributeBasedHierarchy) {
  auto input = topology::make_full_mesh(5);
  input.set_node_attr(input.find_node("as1r1"), "rr", true);
  input.set_node_attr(input.find_node("as1r2"), "rr", true);
  auto anm = load(input);
  auto g = design::build_ibgp_route_reflectors(anm);
  // Sessions: rr1<->rr2 plus each of the 3 clients to both RRs:
  // 1 + 3*2 = 7 sessions = 14 directed edges.
  EXPECT_EQ(design::session_count(g), 7u);
  // Client sessions are marked on the rr->client direction.
  std::size_t client_edges = 0;
  for (const auto& e : g.edges()) {
    if (e.attr("rr_client").truthy()) {
      ++client_edges;
      EXPECT_TRUE(e.src().attr("rr").truthy());
      EXPECT_FALSE(e.dst().attr("rr").truthy());
    }
  }
  EXPECT_EQ(client_edges, 6u);
}

TEST(BuildIbgpRr, ClusterPinning) {
  auto input = topology::bad_gadget();
  auto anm = load(input);
  auto g = design::build_ibgp_route_reflectors(anm);
  // Each client peers only with its own cluster's RR: rr-rr mesh (3
  // sessions) + 3 client sessions = 6 sessions; externals e1-3 are
  // single-router ASes with no iBGP.
  EXPECT_EQ(design::session_count(g), 6u);
  auto edges = directed_edges(g);
  EXPECT_TRUE(edges.contains("rr1>c1"));
  EXPECT_FALSE(edges.contains("rr2>c1"));
}

TEST(BuildIbgpRr, FallsBackToMeshWithoutReflectors) {
  auto anm = load(topology::make_full_mesh(4));
  auto g = design::build_ibgp_route_reflectors(anm);
  EXPECT_EQ(design::session_count(g), 6u);  // full mesh among 4
}

TEST(SelectRouteReflectors, MarksMostCentral) {
  // A star: the hub is the most central router.
  auto input = topology::make_star(8);
  auto anm = load(input);
  design::RrSelectOptions opts;
  opts.per_as = 1;
  opts.min_as_size = 4;
  std::size_t marked = design::select_route_reflectors(anm, opts);
  EXPECT_EQ(marked, 1u);
  EXPECT_TRUE(anm["phy"].node("as1r1")->attr("rr").truthy());
}

TEST(SelectRouteReflectors, SkipsSmallAses) {
  auto anm = load(topology::figure5());
  design::RrSelectOptions opts;
  opts.per_as = 2;
  opts.min_as_size = 4;  // AS1 has exactly 4 routers -> skipped
  EXPECT_EQ(design::select_route_reflectors(anm, opts), 0u);
}

TEST(SelectRouteReflectors, AllCentralityMetrics) {
  for (const char* metric : {"degree", "betweenness", "closeness"}) {
    auto anm = load(topology::make_star(8));
    design::RrSelectOptions opts;
    opts.per_as = 1;
    opts.metric = metric;
    EXPECT_EQ(design::select_route_reflectors(anm, opts), 1u) << metric;
    EXPECT_TRUE(anm["phy"].node("as1r1")->attr("rr").truthy()) << metric;
  }
}

TEST(SelectRouteReflectors, UnknownMetricThrows) {
  auto anm = load(topology::make_star(8));
  design::RrSelectOptions opts;
  opts.metric = "pagerank";
  EXPECT_THROW(design::select_route_reflectors(anm, opts), std::invalid_argument);
}

TEST(SessionScaling, RrBeatssMeshBeyondCrossover) {
  // §7.1: RR session count is linear, mesh quadratic.
  auto input = topology::make_full_mesh(20);
  input.set_node_attr(input.find_node("as1r1"), "rr", true);
  input.set_node_attr(input.find_node("as1r2"), "rr", true);
  auto anm = load(input);
  auto mesh = design::build_ibgp_full_mesh(anm);
  std::size_t mesh_sessions = design::session_count(mesh);
  anm.remove_overlay("ibgp");
  auto rr = design::build_ibgp_route_reflectors(anm);
  std::size_t rr_sessions = design::session_count(rr);
  EXPECT_EQ(mesh_sessions, 190u);
  EXPECT_EQ(rr_sessions, 1u + 18u * 2u);
  EXPECT_LT(rr_sessions, mesh_sessions);
}

TEST(BuildEbgp, SmallInternetSessions) {
  auto anm = load(topology::small_internet());
  auto g = design::build_ebgp(anm);
  EXPECT_EQ(design::session_count(g), 8u);  // eight inter-AS links
}

}  // namespace
