// The incremental pipeline's contract, bottom to top: typed graph
// diffs, the hot-apply action table — and, at the workflow level, the
// byte-identity guarantee: a warm re-run restores every phase with zero
// recompute work, and a run over a seeded single-attribute edit reports
// the delta, rebuilds cold and produces design/compile/render/lint
// artifacts, SARIF, and a run_report.json byte-identical to a
// from-scratch run of the edited topology, whatever else the baseline
// directory holds.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/cancel.hpp"
#include "core/workflow.hpp"
#include "experiment/runner.hpp"
#include "graph/graph.hpp"
#include "incremental/delta.hpp"
#include "incremental/hot_apply.hpp"
#include "obs/registry.hpp"
#include "report/run_report.hpp"
#include "topology/builtin.hpp"
#include "topology/generators.hpp"
#include "verify/analysis/cache.hpp"
#include "verify/rules.hpp"

namespace {

using namespace autonet;
namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

std::uint64_t counter_value(obs::Registry& registry, const std::string& name) {
  for (const auto& [key, value] : registry.counter_values()) {
    if (key == name) return value;
  }
  return 0;
}

void set_cost(graph::Graph& g, const std::string& u, const std::string& v,
              std::int64_t cost) {
  const graph::EdgeId e = g.find_edge(g.find_node(u), g.find_node(v));
  ASSERT_NE(e, graph::kInvalidEdge);
  g.set_edge_attr(e, "ospf_cost", cost);
}

// A scaled-down §3.2 NREN model: the same generator as the paper-scale
// topology, sized so three full pipeline runs stay cheap under asan.
graph::Graph small_nren() {
  topology::NrenOptions opts;
  opts.as_count = 5;
  opts.router_count = 36;
  opts.link_count = 48;
  return topology::make_nren_model(opts);
}

// --- diff_graphs ----------------------------------------------------------

TEST(DiffGraphs, IdenticalGraphsDiffEmpty) {
  const auto d =
      incremental::diff_graphs(topology::figure5(), topology::figure5());
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.size(), 0u);
}

TEST(DiffGraphs, TypedDeltasComeOutInDeterministicOrder) {
  graph::Graph a;
  a.add_node("a");
  a.add_node("b");
  a.add_node("c");
  a.set_node_attr(a.find_node("a"), "asn", 1);
  a.add_edge("a", "b");
  const graph::EdgeId bc = a.add_edge("b", "c");
  a.set_edge_attr(bc, "ospf_cost", 3);

  // Node attribute change.
  {
    graph::Graph b = a;
    b.set_node_attr(b.find_node("a"), "asn", 2);
    const auto d = incremental::diff_graphs(a, b);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d.deltas[0].kind, incremental::DeltaKind::kNodeAttrChanged);
    EXPECT_EQ(d.deltas[0].node, "a");
    EXPECT_EQ(d.deltas[0].attr, "asn");
    EXPECT_EQ(d.deltas[0].old_value, "1");
    EXPECT_EQ(d.deltas[0].new_value, "2");
  }
  // Link attribute change — an unset baseline value renders as "".
  {
    graph::Graph b = a;
    b.set_edge_attr(b.find_edge(b.find_node("b"), b.find_node("c")),
                    "ospf_cost", 5);
    b.set_edge_attr(b.find_edge(b.find_node("a"), b.find_node("b")),
                    "ospf_area", 1);
    const auto d = incremental::diff_graphs(a, b);
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d.deltas[0].kind, incremental::DeltaKind::kLinkAttrChanged);
    EXPECT_EQ(d.deltas[0].src, "a");
    EXPECT_EQ(d.deltas[0].dst, "b");
    EXPECT_EQ(d.deltas[0].old_value, "");
    EXPECT_EQ(d.deltas[0].new_value, "1");
    EXPECT_EQ(d.deltas[1].src, "b");
    EXPECT_EQ(d.deltas[1].old_value, "3");
    EXPECT_EQ(d.deltas[1].new_value, "5");
  }
  // Additions: node deltas sort before link deltas.
  {
    graph::Graph b = a;
    b.add_node("d");
    b.add_edge("c", "d");
    const auto d = incremental::diff_graphs(a, b);
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d.deltas[0].kind, incremental::DeltaKind::kNodeAdded);
    EXPECT_EQ(d.deltas[0].node, "d");
    EXPECT_EQ(d.deltas[1].kind, incremental::DeltaKind::kLinkAdded);
    EXPECT_EQ(d.deltas[1].src, "c");
    EXPECT_EQ(d.deltas[1].dst, "d");
  }
  // Removal.
  {
    graph::Graph b = a;
    b.remove_edge(b.find_edge(b.find_node("b"), b.find_node("c")));
    const auto d = incremental::diff_graphs(a, b);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d.deltas[0].kind, incremental::DeltaKind::kLinkRemoved);
  }
  // Determinism: two diffs of the same pair serialize identically.
  const auto first = incremental::diff_graphs(a, topology::figure5());
  const auto second = incremental::diff_graphs(a, topology::figure5());
  EXPECT_EQ(first.to_json(true), second.to_json(true));
  EXPECT_EQ(first.to_text(), second.to_text());
}

// --- Hot-apply planning ---------------------------------------------------

TEST(HotApplyPlan, ActionTableMapsScopedDeltasAndRejectsTheRest) {
  using incremental::DeltaKind;
  incremental::DeltaSet cost_change;
  cost_change.deltas.push_back(
      {DeltaKind::kLinkAttrChanged, "", "a", "b", "ospf_cost", "1", "5"});
  auto plan = incremental::plan_hot_apply(cost_change, "ospf_cost");
  ASSERT_TRUE(plan.applicable());
  ASSERT_EQ(plan.actions.size(), 1u);
  EXPECT_EQ(plan.actions[0].kind, incremental::HotAction::Kind::kLinkCost);
  EXPECT_EQ(plan.actions[0].a, "a");
  EXPECT_EQ(plan.actions[0].b, "b");
  EXPECT_EQ(plan.actions[0].cost, 5);

  incremental::DeltaSet removal;
  removal.deltas.push_back({DeltaKind::kLinkRemoved, "", "a", "b", "", "", ""});
  plan = incremental::plan_hot_apply(removal, "ospf_cost");
  ASSERT_TRUE(plan.applicable());
  EXPECT_EQ(plan.actions[0].kind, incremental::HotAction::Kind::kFailLink);

  // Anything structural beyond a link removal needs a full redeploy.
  incremental::DeltaSet node_added;
  node_added.deltas.push_back({DeltaKind::kNodeAdded, "d", "", "", "", "", ""});
  EXPECT_FALSE(incremental::plan_hot_apply(node_added, "ospf_cost").applicable());

  // A non-cost attribute change has no scoped action.
  incremental::DeltaSet other_attr;
  other_attr.deltas.push_back(
      {DeltaKind::kLinkAttrChanged, "", "a", "b", "bandwidth", "10", "40"});
  plan = incremental::plan_hot_apply(other_attr, "ospf_cost");
  EXPECT_FALSE(plan.applicable());
  EXPECT_EQ(plan.unsupported.size(), 1u);

  // An empty delta has nothing to apply.
  EXPECT_FALSE(incremental::plan_hot_apply({}, "ospf_cost").applicable());
}

// --- Workflow: warm no-op -------------------------------------------------

TEST(IncrementalWorkflow, WarmNoopRestoresEveryPhaseWithZeroWork) {
  const std::string base = temp_dir("autonet_incr_warm_base");
  const graph::Graph g = topology::small_internet();

  std::string baseline_report;
  {
    obs::Registry registry(std::make_unique<obs::VirtualClock>(1));
    obs::RegistryScope scope(registry);
    core::Workflow wf;
    wf.use_telemetry(&registry);
    wf.checkpoint_to(base);
    wf.run(g);
    wf.measure();
    baseline_report = report::run_report_json(wf);
  }
  {
    obs::Registry registry(std::make_unique<obs::VirtualClock>(1));
    obs::RegistryScope scope(registry);
    core::Workflow wf;
    wf.use_telemetry(&registry);
    wf.incremental_from(base);
    wf.run(g);
    wf.measure();

    EXPECT_EQ(wf.incremental_report().mode, "warm");
    EXPECT_EQ(wf.restored_phases(),
              (std::vector<std::string>{"load", "design", "compile", "render",
                                        "lint", "deploy", "measure"}));
    // Zero recompute work: no design rule ran, no device compiled, no
    // template rendered.
    EXPECT_EQ(counter_value(registry, "compile.devices"), 0u);
    EXPECT_EQ(counter_value(registry, "render.devices"), 0u);
    EXPECT_EQ(counter_value(registry, "render.templates_rendered"), 0u);
    EXPECT_EQ(counter_value(registry, "incr.phase_reused"), 7u);
    // And the result is byte-identical anyway.
    EXPECT_EQ(report::run_report_json(wf), baseline_report);
    EXPECT_TRUE(wf.ok());
  }
  fs::remove_all(base);
}

// --- Workflow: edited inputs are byte-identical to scratch ----------------

// Runs the full pipeline (+measure) over `g` with a checkpoint at `dir`,
// chaining off `baseline` when non-empty; returns the run report.
struct PipelineResult {
  std::string report;
  std::string sarif;
  core::IncrementalReport incr;
};

PipelineResult run_pipeline(const graph::Graph& g, const std::string& dir,
                            const std::string& baseline = "") {
  verify::analysis::FibCache::global().clear();
  obs::Registry registry(std::make_unique<obs::VirtualClock>(1));
  obs::RegistryScope scope(registry);
  core::Workflow wf;
  wf.use_telemetry(&registry);
  wf.checkpoint_to(dir);
  if (!baseline.empty()) wf.incremental_from(baseline);
  wf.run(g);
  wf.measure();
  PipelineResult result;
  result.report = report::run_report_json(wf);
  result.sarif = verify::to_sarif(wf.lint_report());
  result.incr = wf.incremental_report();
  return result;
}

void expect_identical_artifacts(const std::string& a, const std::string& b) {
  for (const char* artifact :
       {"design.json", "compile.json", "render.json", "lint.json"}) {
    const std::string lhs = slurp(a + "/" + artifact);
    const std::string rhs = slurp(b + "/" + artifact);
    ASSERT_FALSE(lhs.empty()) << artifact;
    EXPECT_EQ(lhs, rhs) << artifact;
  }
}

TEST(IncrementalWorkflow, CostEditOnSmallInternetIsByteIdenticalToScratch) {
  const std::string base = temp_dir("autonet_incr_si_base");
  const std::string part = temp_dir("autonet_incr_si_part");
  const std::string scratch = temp_dir("autonet_incr_si_scratch");

  const graph::Graph g = topology::small_internet();
  graph::Graph edited = topology::small_internet();
  set_cost(edited, "as300r1", "as300r3", 7);

  (void)run_pipeline(g, base);
  const PipelineResult from_scratch = run_pipeline(edited, scratch);
  const PipelineResult incremental = run_pipeline(edited, part, base);

  // The edited input rebuilds cold: the delta is reported, and every
  // device is dirty.
  EXPECT_EQ(incremental.incr.mode, "cold");
  EXPECT_EQ(incremental.incr.delta.size(), 1u);
  EXPECT_EQ(incremental.incr.plan.dirty_devices.size(), g.node_count());
  EXPECT_TRUE(incremental.incr.plan.reused_devices.empty());

  // Byte-identity: reports, SARIF, and every phase artifact.
  EXPECT_EQ(incremental.report, from_scratch.report);
  EXPECT_EQ(incremental.sarif, from_scratch.sarif);
  expect_identical_artifacts(part, scratch);

  fs::remove_all(base);
  fs::remove_all(part);
  fs::remove_all(scratch);
}

TEST(IncrementalWorkflow, NodeAttrEditOnSmallInternetIsByteIdentical) {
  const std::string base = temp_dir("autonet_incr_si2_base");
  const std::string part = temp_dir("autonet_incr_si2_part");
  const std::string scratch = temp_dir("autonet_incr_si2_scratch");

  const graph::Graph g = topology::small_internet();
  graph::Graph edited = topology::small_internet();
  edited.set_node_attr(edited.find_node("as100r2"), "label", "edited");

  (void)run_pipeline(g, base);
  const PipelineResult from_scratch = run_pipeline(edited, scratch);
  const PipelineResult incremental = run_pipeline(edited, part, base);

  EXPECT_EQ(incremental.incr.mode, "cold");
  EXPECT_EQ(incremental.incr.delta.size(), 1u);
  EXPECT_EQ(incremental.incr.plan.dirty_devices.size(), g.node_count());
  EXPECT_TRUE(incremental.incr.plan.reused_devices.empty());
  EXPECT_EQ(incremental.report, from_scratch.report);
  EXPECT_EQ(incremental.sarif, from_scratch.sarif);
  expect_identical_artifacts(part, scratch);

  fs::remove_all(base);
  fs::remove_all(part);
  fs::remove_all(scratch);
}

TEST(IncrementalWorkflow, CostEditOnNrenModelIsByteIdenticalToScratch) {
  const std::string base = temp_dir("autonet_incr_nren_base");
  const std::string part = temp_dir("autonet_incr_nren_part");
  const std::string scratch = temp_dir("autonet_incr_nren_scratch");

  const graph::Graph g = small_nren();
  graph::Graph edited = small_nren();
  // Seeded single-attribute edit: the first edge of the generated model.
  const auto edges = edited.edges();
  ASSERT_FALSE(edges.empty());
  edited.set_edge_attr(edges.front(), "ospf_cost", 5);

  (void)run_pipeline(g, base);
  const PipelineResult from_scratch = run_pipeline(edited, scratch);
  const PipelineResult incremental = run_pipeline(edited, part, base);

  EXPECT_EQ(incremental.incr.mode, "cold");
  EXPECT_EQ(incremental.incr.delta.size(), 1u);
  EXPECT_EQ(incremental.incr.plan.dirty_devices.size(), g.node_count());
  EXPECT_TRUE(incremental.incr.plan.reused_devices.empty());
  EXPECT_EQ(incremental.report, from_scratch.report);
  EXPECT_EQ(incremental.sarif, from_scratch.sarif);
  expect_identical_artifacts(part, scratch);

  fs::remove_all(base);
  fs::remove_all(part);
  fs::remove_all(scratch);
}

// A run that reuses a checkpoint directory and stops before render
// leaves that directory's older files behind. Whatever they are, an
// incremental run chained off it must still match a scratch build.
TEST(IncrementalWorkflow, InterruptedRebuildInTheBaselineCannotLeakIntoAChainedRun) {
  const std::string dir = temp_dir("autonet_incr_stale_base");
  const graph::Graph x = topology::small_internet();
  graph::Graph y = topology::small_internet();
  set_cost(y, "as20r1", "as20r2", 77);

  auto build = [](core::Workflow& wf, const graph::Graph& g) {
    wf.load(g).design().compile().render().lint();
  };
  {
    obs::Registry registry(std::make_unique<obs::VirtualClock>(1));
    obs::RegistryScope scope(registry);
    core::Workflow wf;
    wf.use_telemetry(&registry);
    wf.checkpoint_to(dir);
    build(wf, x);
  }
  {
    // Y into the same directory, cancelled as render starts: load,
    // design and compile now describe Y.
    obs::Registry registry(std::make_unique<obs::VirtualClock>(1));
    obs::RegistryScope scope(registry);
    core::RunControl control;
    control.trip_hook = [](std::string_view at) { return at == "phase.render"; };
    core::Workflow wf;
    wf.use_telemetry(&registry);
    wf.use_control(&control);
    wf.checkpoint_to(dir);
    EXPECT_THROW(build(wf, y), core::Cancelled);
  }

  obs::Registry scratch_registry(std::make_unique<obs::VirtualClock>(1));
  core::Workflow scratch;
  scratch.use_telemetry(&scratch_registry);
  {
    obs::RegistryScope scope(scratch_registry);
    build(scratch, x);
  }
  obs::Registry registry(std::make_unique<obs::VirtualClock>(1));
  core::Workflow chained;
  chained.use_telemetry(&registry);
  {
    obs::RegistryScope scope(registry);
    chained.incremental_from(dir);
    build(chained, x);
  }

  EXPECT_EQ(chained.incremental_report().mode, "cold");
  EXPECT_EQ(chained.incremental_report().delta.size(), 1u);
  EXPECT_TRUE(chained.restored_phases().empty());
  EXPECT_EQ(chained.nidb().to_json(), scratch.nidb().to_json());
  std::vector<std::string> differing;
  for (const auto& [path, content] : scratch.configs()) {
    const std::string* built = chained.configs().get(path);
    if (built == nullptr || *built != content) differing.push_back(path);
  }
  EXPECT_EQ(differing, std::vector<std::string>{});
  EXPECT_EQ(chained.configs().file_count(), scratch.configs().file_count());
  EXPECT_EQ(chained.lint_report().to_json(), scratch.lint_report().to_json());
  fs::remove_all(dir);
}

// --- Workflow: hot-apply --------------------------------------------------

TEST(IncrementalWorkflow, HotApplyConvergesToTheScratchControlPlane) {
  const std::string base = temp_dir("autonet_incr_hot_base");
  const graph::Graph g = topology::figure5();
  graph::Graph edited = topology::figure5();
  // Push r1->r4 traffic off the r1-r3 link.
  set_cost(edited, "r1", "r3", 10);

  {
    obs::Registry registry(std::make_unique<obs::VirtualClock>(1));
    obs::RegistryScope scope(registry);
    core::Workflow wf;
    wf.use_telemetry(&registry);
    wf.checkpoint_to(base);
    wf.run(g);
  }

  obs::Registry scratch_registry(std::make_unique<obs::VirtualClock>(1));
  core::Workflow scratch;
  scratch.use_telemetry(&scratch_registry);
  {
    obs::RegistryScope scope(scratch_registry);
    scratch.run(edited);
  }

  obs::Registry hot_registry(std::make_unique<obs::VirtualClock>(1));
  core::Workflow hot;
  hot.use_telemetry(&hot_registry);
  {
    obs::RegistryScope scope(hot_registry);
    hot.incremental_from(base);
    hot.set_hot_apply(true);
    hot.run(edited);
  }

  EXPECT_TRUE(hot.incremental_report().hot_applied);
  EXPECT_GE(counter_value(hot_registry, "incr.hot_apply"), 1u);
  EXPECT_TRUE(hot.ok());
  EXPECT_TRUE(hot.validate_ospf().ok);

  // The hot-applied network's control plane matches a full redeploy of
  // the edited design: same reachability, same forwarding paths.
  const auto reach_scratch = scratch.measurement().reachability();
  const auto reach_hot = hot.measurement().reachability();
  EXPECT_EQ(reach_hot.routers, reach_scratch.routers);
  EXPECT_EQ(reach_hot.reached, reach_scratch.reached);
  const auto path_scratch = scratch.measurement().traceroute("r1", "r4");
  const auto path_hot = hot.measurement().traceroute("r1", "r4");
  EXPECT_TRUE(path_hot.reached);
  EXPECT_EQ(path_hot.node_path, path_scratch.node_path);

  fs::remove_all(base);
}

TEST(IncrementalWorkflow, LinkAddFallsBackToRebuildNotHotApply) {
  // A *structural* edit (new link) has no scoped emulation action: the
  // hot-apply planner must refuse it and the workflow must fall back to
  // a full redeploy whose results match a from-scratch run — with the
  // decision visible in the --explain report.
  const std::string base = temp_dir("autonet_incr_linkadd_base");
  const graph::Graph g = topology::figure5();
  graph::Graph edited = topology::figure5();
  edited.add_edge(edited.find_node("r1"), edited.find_node("r4"));

  {
    obs::Registry registry(std::make_unique<obs::VirtualClock>(1));
    obs::RegistryScope scope(registry);
    core::Workflow wf;
    wf.use_telemetry(&registry);
    wf.checkpoint_to(base);
    wf.run(g);
  }

  obs::Registry scratch_registry(std::make_unique<obs::VirtualClock>(1));
  core::Workflow scratch;
  scratch.use_telemetry(&scratch_registry);
  {
    obs::RegistryScope scope(scratch_registry);
    scratch.run(edited);
  }

  obs::Registry hot_registry(std::make_unique<obs::VirtualClock>(1));
  core::Workflow hot;
  hot.use_telemetry(&hot_registry);
  {
    obs::RegistryScope scope(hot_registry);
    hot.incremental_from(base);
    hot.set_hot_apply(true);  // requested, but not applicable
    hot.run(edited);
  }

  // The planner itself rejects the delta...
  const auto plan =
      incremental::plan_hot_apply(hot.incremental_report().delta, "ospf_cost");
  EXPECT_FALSE(plan.applicable());
  EXPECT_FALSE(plan.unsupported.empty());
  // ...so the workflow must not have hot-applied, and said so.
  EXPECT_FALSE(hot.incremental_report().hot_applied);
  EXPECT_EQ(counter_value(hot_registry, "incr.hot_apply"), 0u);
  const std::string explain = hot.incremental_report().to_text();
  EXPECT_NE(explain.find("link"), std::string::npos) << explain;

  // The fall-back redeploy converges to the scratch control plane.
  EXPECT_TRUE(hot.ok());
  EXPECT_TRUE(hot.validate_ospf().ok);
  const auto reach_scratch = scratch.measurement().reachability();
  const auto reach_hot = hot.measurement().reachability();
  EXPECT_EQ(reach_hot.routers, reach_scratch.routers);
  EXPECT_EQ(reach_hot.reached, reach_scratch.reached);
  // The new link carries r1->r4 traffic directly in both worlds.
  const auto path_scratch = scratch.measurement().traceroute("r1", "r4");
  const auto path_hot = hot.measurement().traceroute("r1", "r4");
  EXPECT_TRUE(path_hot.reached);
  EXPECT_EQ(path_hot.node_path, path_scratch.node_path);

  // And the built artifacts are byte-identical to scratch.
  EXPECT_EQ(hot.nidb().to_json(), scratch.nidb().to_json());
  EXPECT_TRUE(hot.configs() == scratch.configs());

  fs::remove_all(base);
}

TEST(HotApply, FailLinkActionDrainsTheLinkAndReconverges) {
  obs::Registry registry(std::make_unique<obs::VirtualClock>(1));
  obs::RegistryScope scope(registry);
  core::Workflow wf;
  wf.use_telemetry(&registry);
  wf.run(topology::figure5());
  ASSERT_TRUE(wf.ok());

  incremental::HotApplyPlan plan;
  plan.actions.push_back(
      {incremental::HotAction::Kind::kFailLink, "r1", "r3", 0});
  const auto result = incremental::hot_apply(wf.network(), plan);
  EXPECT_EQ(result.applied, 1u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_TRUE(result.convergence.converged);
  // Redundant paths keep the network fully connected.
  EXPECT_TRUE(wf.measurement().reachability().fully_connected());

  // An unknown link is rejected, not fatal.
  incremental::HotApplyPlan bogus;
  bogus.actions.push_back(
      {incremental::HotAction::Kind::kFailLink, "r1", "nope", 0});
  const auto rejected = incremental::hot_apply(wf.network(), bogus);
  EXPECT_EQ(rejected.applied, 0u);
  EXPECT_EQ(rejected.failed, 1u);
}

// --- Campaigns ------------------------------------------------------------

TEST(CampaignRunner, IncrementalCampaignChainsRunsAndJournalsDeltaMetrics) {
  const std::string ckpt = temp_dir("autonet_incr_campaign_ckpt");
  experiment::CampaignSpec spec;
  spec.name = "incr";
  spec.topology = "figure5";
  spec.repetitions = 2;

  experiment::RunnerOptions options;
  options.jobs = 1;
  options.incremental = true;
  options.checkpoint_dir = ckpt;

  experiment::CampaignRunner runner(spec, options);
  const auto result = runner.run();
  ASSERT_EQ(result.results.size(), 2u);
  EXPECT_TRUE(result.all_ok());

  // The first cell is the baseline: it chains off nothing.
  EXPECT_EQ(result.results[0].metric("delta.reuse_ratio", -1), -1);
  // The second cell differs only in its per-run deploy seed, so every
  // build-phase device is reused and deploy runs fresh.
  EXPECT_EQ(result.results[1].metric("delta.reuse_ratio", -1), 1.0);
  EXPECT_EQ(result.results[1].metric("delta.dirty_devices", -1), 0.0);
  EXPECT_EQ(result.results[1].metric("delta.reused_devices", -1), 5.0);

  fs::remove_all(ckpt);
}

}  // namespace
