// The incremental pipeline's contract, bottom to top: typed graph
// diffs — and, at the workflow level, the byte-identity guarantee: a
// warm re-run restores every phase with zero recompute work, and a run
// over a seeded single-attribute edit reports the delta, rebuilds cold
// and produces design/compile/render/lint artifacts, SARIF, and a
// run_report.json byte-identical to a from-scratch run of the edited
// topology, whatever else the baseline directory holds. A structural
// edit (a new link) rebuilds and redeploys to the scratch build's
// artifacts and control plane.
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

// --- Workflow: structural edits -------------------------------------------

TEST(IncrementalWorkflow, LinkAddAgainstABaselineRedeploysLikeScratch) {
  // A *structural* edit (new link) built against a baseline: the run
  // rebuilds and redeploys to the results of a from-scratch run, and
  // its --explain report names the new link.
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

  obs::Registry chained_registry(std::make_unique<obs::VirtualClock>(1));
  core::Workflow chained;
  chained.use_telemetry(&chained_registry);
  {
    obs::RegistryScope scope(chained_registry);
    chained.incremental_from(base);
    chained.run(edited);
  }

  const std::string explain = chained.incremental_report().to_text();
  EXPECT_NE(explain.find("+ link r1 -- r4"), std::string::npos) << explain;

  // The redeploy converges to the scratch control plane.
  EXPECT_TRUE(chained.ok());
  EXPECT_TRUE(chained.validate_ospf().ok);
  const auto reach_scratch = scratch.measurement().reachability();
  const auto reach_chained = chained.measurement().reachability();
  EXPECT_EQ(reach_chained.routers, reach_scratch.routers);
  EXPECT_EQ(reach_chained.reached, reach_scratch.reached);
  // The new link carries r1->r4 traffic directly in both worlds.
  const auto path_scratch = scratch.measurement().traceroute("r1", "r4");
  const auto path_chained = chained.measurement().traceroute("r1", "r4");
  EXPECT_TRUE(path_chained.reached);
  EXPECT_EQ(path_chained.node_path, path_scratch.node_path);

  // And the built artifacts are byte-identical to scratch.
  EXPECT_EQ(chained.nidb().to_json(), scratch.nidb().to_json());
  EXPECT_TRUE(chained.configs() == scratch.configs());

  fs::remove_all(base);
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
