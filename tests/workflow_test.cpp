#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/workflow.hpp"
#include "topology/builtin.hpp"
#include "topology/generators.hpp"

namespace {

using namespace autonet;

TEST(Workflow, PhasesMustRunInOrder) {
  core::Workflow wf;
  EXPECT_THROW(wf.design(), std::logic_error);
  wf.load(topology::figure5());
  EXPECT_THROW(wf.compile(), std::logic_error);
  wf.design();
  EXPECT_THROW(wf.render(), std::logic_error);
  wf.compile();
  EXPECT_THROW(wf.deploy(), std::logic_error);
  wf.render();
  wf.deploy();
  EXPECT_TRUE(wf.deploy_result().success);
}

TEST(Workflow, AccessorsThrowBeforePhases) {
  core::Workflow wf;
  EXPECT_THROW((void)wf.nidb(), std::logic_error);
  EXPECT_THROW((void)wf.configs(), std::logic_error);
  EXPECT_THROW((void)wf.network(), std::logic_error);
  EXPECT_THROW((void)wf.measurement(), std::logic_error);
  EXPECT_THROW((void)wf.validate_ospf(), std::logic_error);
}

TEST(Workflow, TimingsRecorded) {
  core::Workflow wf;
  wf.run(topology::figure5());
  const auto& t = wf.timings();
  for (const char* phase : {"load", "design", "compile", "render", "deploy"}) {
    ASSERT_TRUE(t.ms.contains(phase)) << phase;
    EXPECT_GE(t.ms.at(phase), 0.0);
  }
  EXPECT_GT(t.total(), 0.0);
  EXPECT_NE(t.to_string().find("render="), std::string::npos);
}

// Every cell of the one restore rule (docs/incremental.md): the own
// checkpoint and the incremental_from() baseline, each against a run
// with the same input and options (exact), other deploy options, an
// edited input under the same build options, or other build options.
TEST(Workflow, ReuseDecisionCoversEveryStoreAndMatch) {
  namespace fs = std::filesystem;
  std::string root = (fs::temp_directory_path() / "autonet_reuse_XXXXXX").string();
  ASSERT_NE(mkdtemp(root.data()), nullptr);
  const graph::Graph input = topology::figure5();
  graph::Graph edited = topology::figure5();
  edited.set_edge_attr(edited.find_edge(edited.find_node("r1"), edited.find_node("r3")),
                       "ospf_cost", 10);
  const core::WorkflowOptions same;
  core::WorkflowOptions deploy_differs;
  deploy_differs.deploy.max_boot_attempts += 1;
  core::WorkflowOptions build_differs;
  build_differs.lint.fail_fast = false;
  const std::vector<std::string> build_phases = {"load", "design", "compile",
                                                 "render", "lint"};
  std::vector<std::string> all_phases = build_phases;
  all_phases.emplace_back("deploy");

  struct Cell {
    const char* name;
    core::WorkflowOptions options;
    const graph::Graph* input;
    const char* mode;
    std::vector<std::string> restores;  // the same from either store
    const char* reason;
  };
  const std::vector<Cell> cells = {
      {"exact", same, &input, "warm", all_phases,
       "input unchanged: every phase restores"},
      {"deploy", deploy_differs, &input, "partial", build_phases,
       "deploy options differ: load..lint restore"},
      {"edited", same, &edited, "cold", {}, "input changed: full recompute"},
      {"other", build_differs, &input, "cold", {}, "baseline options differ"},
  };

  const std::string base = root + "/base";
  core::Workflow(same).checkpoint_to(base).run(input);

  for (const Cell& cell : cells) {
    SCOPED_TRACE(cell.name);
    // The baseline is read, never written.
    core::Workflow chained(cell.options);
    chained.incremental_from(base).run(*cell.input);
    const core::IncrementalReport& incr = chained.incremental_report();
    EXPECT_EQ(incr.mode, cell.mode);
    EXPECT_EQ(chained.restored_phases(), cell.restores);
    EXPECT_NE(incr.to_text().find(cell.reason), std::string::npos) << incr.to_text();
    EXPECT_EQ(incr.delta.size(), cell.input == &edited ? 1u : 0u);

    // The own store restores exactly what the baseline would, then
    // holds only records its meta vouches for.
    const std::string own = root + "/own_" + cell.name;
    fs::copy(base, own, fs::copy_options::recursive);
    core::Workflow resumed(cell.options);
    resumed.checkpoint_to(own).run(*cell.input);
    EXPECT_FALSE(resumed.incremental_report().enabled);
    EXPECT_TRUE(resumed.incremental_report().plan.explain.empty());
    EXPECT_EQ(resumed.restored_phases(), cell.restores);
    EXPECT_EQ(resumed.checkpoint_store()->meta("options"), resumed.options_signature());
    EXPECT_EQ(resumed.checkpoint_store()->meta("input_hash"), resumed.input_hash());
    EXPECT_EQ(resumed.checkpoint_store()->phases().size(), all_phases.size());
  }

  // The deploy record a deploy-options run left behind is not restored
  // under the first options: load..lint restore, deploy runs fresh.
  core::Workflow back(same);
  back.checkpoint_to(root + "/own_deploy").run(input);
  EXPECT_EQ(back.restored_phases(), build_phases);
  fs::remove_all(root);
}

TEST(Workflow, UnknownPlatformThrows) {
  core::WorkflowOptions opts;
  opts.platform = "imaginary";
  core::Workflow wf(opts);
  wf.load(topology::figure5()).design();
  EXPECT_THROW(wf.compile(), std::invalid_argument);
}

TEST(Workflow, UnknownIbgpModeThrows) {
  core::WorkflowOptions opts;
  opts.ibgp = "confederation";
  core::Workflow wf(opts);
  wf.load(topology::figure5());
  EXPECT_THROW(wf.design(), std::invalid_argument);
}

TEST(Workflow, RrAutoSelectsAndBuildsHierarchy) {
  core::WorkflowOptions opts;
  opts.ibgp = "rr-auto";
  opts.rr_select.per_as = 1;
  opts.rr_select.min_as_size = 3;
  core::Workflow wf(opts);
  wf.run(topology::small_internet());
  EXPECT_TRUE(wf.deploy_result().success);
  EXPECT_TRUE(wf.deploy_result().convergence.converged);
  // Only AS 300 (4 routers) exceeds min_as_size=3; it gets one reflector.
  std::size_t reflectors = 0;
  for (const auto& n : wf.anm()["phy"].routers()) {
    if (n.attr("rr").truthy()) ++reflectors;
  }
  EXPECT_EQ(reflectors, 1u);
}

TEST(Workflow, ServicesEnabled) {
  core::WorkflowOptions opts;
  opts.enable_dns = true;
  opts.enable_isis = true;
  core::Workflow wf(opts);
  wf.run(topology::small_internet());
  EXPECT_TRUE(wf.deploy_result().success);
  EXPECT_TRUE(wf.anm().has_overlay("dns"));
  EXPECT_TRUE(wf.anm().has_overlay("isis"));
  // DNS config rendered for the nominated server.
  bool dns_config_seen = false;
  for (const auto& [path, content] : wf.configs()) {
    if (path.ends_with("dnsmasq.conf") && content.find("address=/") != std::string::npos) {
      dns_config_seen = true;
    }
  }
  EXPECT_TRUE(dns_config_seen);
}

struct PlatformCase {
  const char* platform;
  bool expect_osc;  // bad-gadget oscillation expectation (§7.2)
};

// gtest_discover_tests names each case by how gtest prints its parameter
// (".../netkit"). The default print is a byte dump of the struct, whose
// pointer moves from build to build, so the name would too.
void PrintTo(const PlatformCase& c, std::ostream* os) { *os << c.platform; }

class PlatformMatrix : public ::testing::TestWithParam<PlatformCase> {};

TEST_P(PlatformMatrix, SmallInternetConvergesAndValidates) {
  core::WorkflowOptions opts;
  opts.platform = GetParam().platform;
  core::Workflow wf(opts);
  wf.run(topology::small_internet());
  EXPECT_TRUE(wf.deploy_result().success);
  EXPECT_TRUE(wf.deploy_result().convergence.converged);
  auto report = wf.validate_ospf();
  EXPECT_TRUE(report.ok) << GetParam().platform << ": " << report.to_string();
}

TEST_P(PlatformMatrix, BadGadgetVendorBehaviour) {
  core::WorkflowOptions opts;
  opts.platform = GetParam().platform;
  opts.ibgp = "rr";
  core::Workflow wf(opts);
  wf.run(topology::bad_gadget());
  EXPECT_TRUE(wf.deploy_result().success);
  EXPECT_EQ(wf.deploy_result().convergence.oscillating, GetParam().expect_osc)
      << GetParam().platform;
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, PlatformMatrix,
    ::testing::Values(PlatformCase{"netkit", false}, PlatformCase{"dynagen", true},
                      PlatformCase{"junosphere", true}, PlatformCase{"cbgp", true}));

class ScaleSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScaleSweep, PipelineScalesAcrossAsCounts) {
  topology::MultiAsOptions gen;
  gen.as_count = GetParam();
  gen.min_routers_per_as = 2;
  gen.max_routers_per_as = 4;
  gen.seed = GetParam() * 13 + 1;
  core::Workflow wf;
  wf.run(topology::make_multi_as(gen));
  EXPECT_TRUE(wf.deploy_result().success);
  EXPECT_TRUE(wf.deploy_result().convergence.converged);
  EXPECT_TRUE(wf.validate_ospf().ok);
}

INSTANTIATE_TEST_SUITE_P(AsCounts, ScaleSweep, ::testing::Values(2u, 4u, 8u, 12u));

}  // namespace
