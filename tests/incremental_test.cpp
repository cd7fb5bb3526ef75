// The incremental pipeline's contract, bottom to top: typed graph
// diffs, snapshot round-trips, dirty propagation in the recompute
// planner, the hot-apply action table — and, at the workflow level, the
// byte-identity guarantee: a warm re-run restores every phase with zero
// recompute work, and a partial run over a seeded single-attribute edit
// produces design/compile/render/lint artifacts, SARIF, and a
// run_report.json byte-identical to a from-scratch run of the edited
// topology while recompiling only the touched devices.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/workflow.hpp"
#include "experiment/runner.hpp"
#include "graph/graph.hpp"
#include "incremental/delta.hpp"
#include "incremental/hot_apply.hpp"
#include "incremental/plan.hpp"
#include "incremental/snapshot.hpp"
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

// --- Snapshot -------------------------------------------------------------

TEST(Snapshot, JsonRoundTripPreservesEveryField) {
  incremental::Snapshot snap;
  snap.lint_sig = "67890";
  snap.data_hash = 42;
  snap.global_digest = 7;
  snap.rule_hashes = {{"ospf", 1}, {"ip", 2}};
  snap.device_sigs = {{"r1", 3}, {"r2", 4}};
  snap.template_hashes = {{"netkit", 5}};

  const auto back = incremental::Snapshot::from_json(snap.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->lint_sig, snap.lint_sig);
  EXPECT_EQ(back->data_hash, snap.data_hash);
  EXPECT_EQ(back->global_digest, snap.global_digest);
  EXPECT_EQ(back->rule_hashes, snap.rule_hashes);
  EXPECT_EQ(back->device_sigs, snap.device_sigs);
  EXPECT_EQ(back->template_hashes, snap.template_hashes);
  // Serialization is deterministic.
  EXPECT_EQ(back->to_json(), snap.to_json());

  EXPECT_FALSE(incremental::Snapshot::from_json("not json").has_value());
}

// --- Recompute planning ---------------------------------------------------

TEST(Plan, DesignDirtPropagatesAlongRuleDependencies) {
  incremental::Snapshot base;
  base.rule_hashes = {{"ospf", 1}, {"ebgp", 2}, {"ibgp", 3}, {"ip", 4},
                      {"dns", 5}};
  auto current = base.rule_hashes;
  current["ip"] = 40;  // only ip's projection changed
  const std::vector<std::string> order = {"ospf", "ebgp", "ibgp", "ip", "dns"};

  incremental::RecomputePlan plan;
  incremental::plan_design(base, current, order, plan);
  EXPECT_EQ(plan.reused_rules,
            (std::vector<std::string>{"ospf", "ebgp", "ibgp"}));
  // dns reads the ip overlay, so an ip change dirties it transitively.
  EXPECT_EQ(plan.dirty_rules, (std::vector<std::string>{"ip", "dns"}));
  EXPECT_TRUE(plan.rule_reused("ospf"));
  EXPECT_FALSE(plan.rule_reused("dns"));

  // A rule absent from the baseline snapshot is dirty by definition.
  incremental::RecomputePlan plan2;
  incremental::Snapshot partial_base;
  partial_base.rule_hashes = {{"ospf", 1}};
  incremental::plan_design(partial_base, current, order, plan2);
  EXPECT_FALSE(plan2.rule_reused("ebgp"));
}

TEST(Plan, DeviceSignatureMismatchDirtiesOnlyThatDevice) {
  incremental::Snapshot base;
  base.device_sigs = {{"r1", 1}, {"r2", 2}, {"r3", 3}};
  base.global_digest = 9;

  incremental::DeviceSignatures cur;
  cur.sigs = {{"r1", 1}, {"r2", 22}, {"r3", 3}};
  cur.global_digest = 9;

  incremental::RecomputePlan plan;
  incremental::plan_devices(base, cur, plan);
  EXPECT_EQ(plan.dirty_devices, (std::set<std::string>{"r2"}));
  EXPECT_EQ(plan.reused_devices, (std::set<std::string>{"r1", "r3"}));

  // A new device (absent from the baseline) is dirty.
  cur.sigs["r4"] = 44;
  incremental::RecomputePlan plan2;
  incremental::plan_devices(base, cur, plan2);
  EXPECT_TRUE(plan2.dirty_devices.contains("r4"));
}

TEST(Plan, GlobalDigestMismatchDirtiesEveryDevice) {
  incremental::Snapshot base;
  base.device_sigs = {{"r1", 1}, {"r2", 2}};
  base.global_digest = 9;
  incremental::DeviceSignatures cur;
  cur.sigs = base.device_sigs;
  cur.global_digest = 10;  // overlay data / services / platform changed

  incremental::RecomputePlan plan;
  incremental::plan_devices(base, cur, plan);
  EXPECT_TRUE(plan.reused_devices.empty());
  EXPECT_EQ(plan.dirty_devices, (std::set<std::string>{"r1", "r2"}));
}

TEST(Plan, LintReuseRequiresMatchingOptionsAndTemplates) {
  incremental::Snapshot base;
  base.lint_sig = "L1";
  base.template_hashes = {{"netkit", 7}};

  incremental::RecomputePlan plan;
  incremental::plan_lint(base, "L1", {{"netkit", 7}}, plan);
  EXPECT_TRUE(plan.lint_reusable);

  incremental::RecomputePlan sig_differs;
  incremental::plan_lint(base, "L2", {{"netkit", 7}}, sig_differs);
  EXPECT_FALSE(sig_differs.lint_reusable);

  incremental::RecomputePlan templates_differ;
  incremental::plan_lint(base, "L1", {{"netkit", 8}}, templates_differ);
  EXPECT_FALSE(templates_differ.lint_reusable);
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

// --- Snapshot projections over real designs -------------------------------

TEST(Projections, CostEditPerturbsOnlyTheOspfRule) {
  obs::Registry registry(std::make_unique<obs::VirtualClock>(1));
  obs::RegistryScope scope(registry);
  const incremental::DesignSpec spec;  // defaults match WorkflowOptions{}

  core::Workflow before;
  before.use_telemetry(&registry);
  before.load(topology::figure5());
  const auto p1 = incremental::rule_projections(before.anm(), spec);

  graph::Graph edited = topology::figure5();
  set_cost(edited, "r1", "r3", 10);
  core::Workflow after;
  after.use_telemetry(&registry);
  after.load(edited);
  const auto p2 = incremental::rule_projections(after.anm(), spec);

  ASSERT_TRUE(p1.contains("ospf") && p2.contains("ospf"));
  EXPECT_NE(p1.at("ospf"), p2.at("ospf"));
  EXPECT_EQ(p1.at("ebgp"), p2.at("ebgp"));
  EXPECT_EQ(p1.at("ibgp"), p2.at("ibgp"));
  EXPECT_EQ(p1.at("ip"), p2.at("ip"));
}

TEST(Projections, DeviceSignaturesDirtyOnlyTheEditedNeighborhood) {
  obs::Registry registry(std::make_unique<obs::VirtualClock>(1));
  obs::RegistryScope scope(registry);

  core::Workflow before;
  before.use_telemetry(&registry);
  before.load(topology::figure5()).design();
  const auto s1 = incremental::device_signatures(before.anm(), "netkit");

  core::Workflow again;
  again.use_telemetry(&registry);
  again.load(topology::figure5()).design();
  const auto s1b = incremental::device_signatures(again.anm(), "netkit");
  EXPECT_EQ(s1.sigs, s1b.sigs);  // deterministic
  EXPECT_EQ(s1.global_digest, s1b.global_digest);
  EXPECT_EQ(s1.sigs.size(), 5u);

  graph::Graph edited = topology::figure5();
  set_cost(edited, "r1", "r3", 10);
  core::Workflow after;
  after.use_telemetry(&registry);
  after.load(edited).design();
  const auto s2 = incremental::device_signatures(after.anm(), "netkit");

  EXPECT_EQ(s1.global_digest, s2.global_digest);
  std::set<std::string> changed;
  for (const auto& [device, sig] : s2.sigs) {
    if (s1.sigs.at(device) != sig) changed.insert(device);
  }
  EXPECT_EQ(changed, (std::set<std::string>{"r1", "r3"}));
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
    EXPECT_TRUE(fs::exists(base + "/snapshot.json"));
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

// --- Workflow: partial byte-equivalence -----------------------------------

// Runs the full pipeline (+measure) over `g` with a checkpoint at `dir`,
// chaining off `baseline` when non-empty; returns the run report.
struct PipelineResult {
  std::string report;
  std::string sarif;
  core::IncrementalReport incr;
  std::uint64_t delta_dirty = 0;
  std::uint64_t delta_reused = 0;
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
  result.delta_dirty = counter_value(registry, "delta.dirty_devices");
  result.delta_reused = counter_value(registry, "delta.reused");
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

  EXPECT_EQ(incremental.incr.mode, "partial");
  EXPECT_EQ(incremental.incr.delta.size(), 1u);
  // Only the two touched devices recompile; everyone else is reused.
  EXPECT_EQ(incremental.incr.plan.dirty_devices,
            (std::set<std::string>{"as300r1", "as300r3"}));
  EXPECT_EQ(incremental.incr.devices_reused_compile, 12u);
  EXPECT_EQ(incremental.incr.devices_reused_render, 12u);
  EXPECT_GE(incremental.incr.lint_rules_reused, 1u);
  EXPECT_EQ(incremental.delta_dirty, 2u);
  EXPECT_EQ(incremental.delta_reused, 12u);
  // The ospf rule re-ran; the bgp and addressing rules were copied.
  EXPECT_FALSE(incremental.incr.plan.rule_reused("ospf"));
  EXPECT_TRUE(incremental.incr.plan.rule_reused("ebgp"));
  EXPECT_TRUE(incremental.incr.plan.rule_reused("ibgp"));
  EXPECT_TRUE(incremental.incr.plan.rule_reused("ip"));

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

  EXPECT_EQ(incremental.incr.mode, "partial");
  EXPECT_EQ(incremental.incr.delta.size(), 1u);
  // A node attribute dirties that device and its direct neighbors
  // (their signatures include the neighbor's attributes), nobody else.
  EXPECT_EQ(incremental.incr.plan.dirty_devices,
            (std::set<std::string>{"as100r1", "as100r2", "as100r3"}));
  EXPECT_EQ(incremental.incr.devices_reused_compile, 11u);
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

  EXPECT_EQ(incremental.incr.mode, "partial");
  EXPECT_EQ(incremental.incr.delta.size(), 1u);
  EXPECT_EQ(incremental.incr.plan.dirty_devices.size(), 2u);
  EXPECT_EQ(incremental.incr.devices_reused_compile, g.node_count() - 2);
  EXPECT_EQ(incremental.report, from_scratch.report);
  EXPECT_EQ(incremental.sarif, from_scratch.sarif);
  expect_identical_artifacts(part, scratch);

  fs::remove_all(base);
  fs::remove_all(part);
  fs::remove_all(scratch);
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
