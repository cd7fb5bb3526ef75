#include <gtest/gtest.h>

#include "core/workflow.hpp"
#include "topology/builtin.hpp"
#include "topology/generators.hpp"
#include "verify/rules.hpp"

namespace {

using namespace autonet;
using verify::Severity;

nidb::Nidb compiled(const graph::Graph& input) {
  core::Workflow wf;
  wf.load(input).design().compile();
  return compiler::platform_compiler_for("netkit").compile(wf.anm());
}

bool has_code(const verify::Report& report, std::string_view code) {
  for (const auto& f : report.findings) {
    if (f.code == code) return true;
  }
  return false;
}

TEST(StaticCheck, CleanOnGeneratedNidb) {
  const auto nidb = compiled(topology::small_internet());
  auto report = verify::run_lint({.nidb = &nidb});
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.error_count(), 0u);
  EXPECT_EQ(report.to_string(), "static check: OK, no findings");
}

TEST(StaticCheck, CleanAcrossGeneratedTopologies) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    topology::MultiAsOptions opts;
    opts.as_count = 5;
    opts.seed = seed;
    const auto nidb = compiled(topology::make_multi_as(opts));
    auto report = verify::run_lint({.nidb = &nidb});
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.to_string();
  }
}

TEST(StaticCheck, DetectsDuplicateAddress) {
  auto nidb = compiled(topology::figure5());
  // Give r2 r1's loopback.
  const auto* r1 = nidb.device("r1");
  nidb.device("r2")->data["loopback"] = *r1->data.find("loopback");
  auto report = verify::run_lint({.nidb = &nidb});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "dup-address"));
}

TEST(StaticCheck, DetectsDuplicateHostname) {
  auto nidb = compiled(topology::figure5());
  nidb.device("r2")->data["hostname"] = "r1";
  auto report = verify::run_lint({.nidb = &nidb});
  EXPECT_TRUE(has_code(report, "dup-hostname"));
}

TEST(StaticCheck, DetectsUnknownBgpPeer) {
  auto nidb = compiled(topology::figure5());
  auto& neighbors = nidb.device("r3")->data["bgp"]["ebgp_neighbors"].array();
  ASSERT_FALSE(neighbors.empty());
  neighbors[0]["neighbor"] = "203.0.113.77";  // nobody owns this
  auto report = verify::run_lint({.nidb = &nidb});
  EXPECT_TRUE(has_code(report, "bgp-unknown-peer"));
}

TEST(StaticCheck, DetectsWrongRemoteAs) {
  auto nidb = compiled(topology::figure5());
  auto& neighbors = nidb.device("r3")->data["bgp"]["ebgp_neighbors"].array();
  ASSERT_FALSE(neighbors.empty());
  neighbors[0]["remote_as"] = 999;
  auto report = verify::run_lint({.nidb = &nidb});
  EXPECT_TRUE(has_code(report, "bgp-wrong-as"));
}

TEST(StaticCheck, DetectsAsymmetricSession) {
  auto nidb = compiled(topology::figure5());
  // Drop r5's side of the r3<->r5 session.
  nidb.device("r5")->data["bgp"]["ebgp_neighbors"] = nidb::Value(nidb::Array{});
  auto report = verify::run_lint({.nidb = &nidb});
  EXPECT_TRUE(has_code(report, "bgp-asym-session"));
}

TEST(StaticCheck, DetectsOspfAreaMismatch) {
  auto nidb = compiled(topology::figure5());
  // Flip the area of r1's first OSPF link only on r1's side.
  auto& links = nidb.device("r1")->data["ospf"]["ospf_links"].array();
  ASSERT_FALSE(links.empty());
  links[0]["area"] = 7;
  auto report = verify::run_lint({.nidb = &nidb});
  EXPECT_TRUE(has_code(report, "ospf-area-mismatch"));
}

TEST(StaticCheck, DetectsHalfOspfLink) {
  auto nidb = compiled(topology::figure5());
  // Remove r2's OSPF coverage entirely: its intra-AS links become
  // half-links from the peers' perspective.
  nidb.device("r2")->data["ospf"]["ospf_links"] = nidb::Value(nidb::Array{});
  auto report = verify::run_lint({.nidb = &nidb});
  EXPECT_TRUE(has_code(report, "ospf-half-link"));
}

TEST(StaticCheck, WarnsOnMissingRenderAttributes) {
  nidb::Nidb nidb;
  nidb.add_device("bare");
  auto report = verify::run_lint({.nidb = &nidb});
  EXPECT_TRUE(report.ok());  // warning, not error
  EXPECT_EQ(report.warning_count(), 1u);
  EXPECT_TRUE(has_code(report, "render-missing"));
}

TEST(StaticCheck, ServersDoNotTriggerHalfLink) {
  auto input = topology::figure5();
  topology::attach_servers(input, 3, 5);
  const auto nidb = compiled(input);
  auto report = verify::run_lint({.nidb = &nidb});
  EXPECT_FALSE(has_code(report, "ospf-half-link")) << report.to_string();
}

TEST(StaticCheck, ReportFormatting) {
  auto nidb = compiled(topology::figure5());
  nidb.device("r2")->data["hostname"] = "r1";
  auto report = verify::run_lint({.nidb = &nidb});
  auto text = report.to_string();
  EXPECT_NE(text.find("ERROR"), std::string::npos);
  EXPECT_NE(text.find("dup-hostname"), std::string::npos);
}

}  // namespace
