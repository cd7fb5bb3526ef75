#include "common.hpp"

#include "emulation/network.hpp"
#include "nidb/nidb.hpp"
#include "obs/registry.hpp"
#include "render/config_tree.hpp"
#include "render/renderer.hpp"

namespace perfbench {

namespace ac = autonet::core;
namespace av = autonet::verify;

void loop_metrics(Outcome& out, const std::vector<double>& times, std::size_t runs_per_op) {
  const double typical = median(times);
  out.set("run_s", typical);
  out.set("runs_per_s", static_cast<double>(runs_per_op) / typical);
}

ac::WorkflowOptions nren_options() {
  ac::WorkflowOptions options;
  options.lint.options.jobs = kLintJobs;
  return options;
}

void build_phases(ac::Workflow& wf, const autonet::graph::Graph& input, Tracer& tracer) {
  {
    Span s(tracer, "phase.load");
    wf.load(input);
  }
  {
    Span s(tracer, "phase.design");
    wf.design();
  }
  {
    Span s(tracer, "phase.compile");
    wf.compile();
  }
  {
    Span s(tracer, "phase.render");
    wf.render();
  }
  Span s(tracer, "phase.lint");
  wf.lint();
}

LintSplit lint_decomposition(Tracer& tracer, const autonet::nidb::Nidb& nidb,
                             const av::RuleRegistry& registry) {
  static const std::string kRule = "bgp-asym-session";
  av::LintInput input;
  input.nidb = &nidb;
  input.templates = &autonet::render::TemplateStore::builtins();
  av::LintOptions only;
  av::LintOptions rest;
  only.jobs = rest.jobs = kLintJobs;
  for (const av::Rule& rule : registry.rules()) {
    only.enabled[rule.info.id] = rule.info.id == kRule;
    rest.enabled[rule.info.id] = rule.info.id != kRule;
  }
  LintSplit split;
  {
    Span span(tracer, "lint." + kRule);
    split.findings += av::run_lint(input, only, registry).findings.size();
    split.asym_s = span.stop();
  }
  Span span(tracer, "lint.rest");
  split.findings += av::run_lint(input, rest, registry).findings.size();
  split.rest_s = span.stop();
  return split;
}

void lint_metrics(Outcome& out, const LintSplit& split) {
  out.set("lint.bgp-asym-session_s", split.asym_s);
  out.set("lint.rest_s", split.rest_s);
  out.set("lint.findings", static_cast<double>(split.findings));
}

void boot_metrics(Outcome& out, Tracer& tracer, const autonet::nidb::Nidb& nidb,
                  const autonet::render::ConfigTree& configs) {
  Span boot(tracer, "emulation.boot");
  auto net = autonet::emulation::EmulatedNetwork::from_nidb(nidb, configs);
  out.set("emulation.boot_s", boot.stop());
  Span converge(tracer, "emulation.converge");
  (void)net.start();
  out.set("emulation.converge_s", converge.stop());
}

void output_sizes(Outcome& out, const autonet::nidb::Nidb& nidb,
                  const autonet::render::ConfigTree* configs) {
  out.set("nidb.devices", static_cast<double>(nidb.device_count()));
  if (configs != nullptr) {
    out.set("render.files", static_cast<double>(configs->file_count()));
    out.set("render.mb", static_cast<double>(configs->total_bytes()) / (1024.0 * 1024.0));
  }
}

void emulation_counters(Outcome& out, const autonet::emulation::EmulatedNetwork& net) {
  const autonet::emulation::EmulationStats& stats = net.stats();
  out.set("emulation.bgp_updates", static_cast<double>(stats.bgp_updates));
  out.set("emulation.decision_reruns", static_cast<double>(stats.decision_reruns));
  out.set("emulation.spf_runs", static_cast<double>(stats.spf_runs));
  out.set("emulation.lsa_floods", static_cast<double>(stats.lsa_floods));
  out.set("emulation.bgp_rounds", static_cast<double>(stats.convergence_rounds));
  std::size_t fib = 0;
  for (const std::string& name : net.router_names()) fib += net.router(name)->fib().size();
  out.set("emulation.fib_entries", static_cast<double>(fib));
}

std::vector<autonet::graph::EdgeId> intra_as_edges(const autonet::graph::Graph& graph) {
  std::vector<autonet::graph::EdgeId> out;
  for (const autonet::graph::EdgeId e : graph.edges()) {
    const auto a = graph.node_attr(graph.edge_src(e), "asn").as_int();
    const auto b = graph.node_attr(graph.edge_dst(e), "asn").as_int();
    if (a && b && *a == *b) out.push_back(e);
  }
  return out;
}

void change_ospf_cost(autonet::graph::Graph& graph, autonet::graph::EdgeId edge, Rng& rng) {
  const std::int64_t old = graph.edge_attr(edge, "ospf_cost").as_int().value_or(1);
  std::int64_t cost = old;
  while (cost == old) cost = std::uniform_int_distribution<std::int64_t>(2, 20)(rng);
  graph.set_edge_attr(edge, "ospf_cost", cost);
}

std::uint64_t global_counter(std::string_view name) {
  for (const auto& [key, value] : autonet::obs::Registry::global().counter_values()) {
    if (key == name) return value;
  }
  return 0;
}

void phase_metrics(Outcome& out, const Tracer& tracer, std::size_t op) {
  for (const std::string& phase : kPhases) {
    out.set("phase." + phase + "_s", tracer.total("phase." + phase, op));
  }
}

}  // namespace perfbench
