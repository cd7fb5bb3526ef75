// Pieces the workloads share: the workflow options they run with, the
// traced build phases, the decompositions that run beside an operation,
// and the setters of metrics more than one workload reports.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/workflow.hpp"
#include "harness.hpp"
#include "verify/rules.hpp"

namespace perfbench {

Outcome nren_run(const Args& args, Tracer& tracer);
Outcome nren_edit(const Args& args, Tracer& tracer);
Outcome nren_analyze(const Args& args, Tracer& tracer);
Outcome campaign_sweep(const Args& args, Tracer& tracer);

/// Lint jobs are fixed, never the library's one-per-hardware-thread
/// default, so the numbers do not move with the host's core count.
inline constexpr std::size_t kLintJobs = 2;
/// setup_s: the first burst of set-ups runs at least kSetups of them,
/// and every burst runs until kSetupBurstSeconds have passed.
inline constexpr int kSetups = 3;
inline constexpr double kSetupBurstSeconds = 0.02;

/// Sets run_s (median operation time) and runs_per_s (the runs one
/// operation completes, `runs_per_op`, per second of the median
/// operation) from a closed loop's operation times. The median keeps a
/// stall of the host during one operation out of both.
void loop_metrics(Outcome& out, const std::vector<double>& times, std::size_t runs_per_op);

/// The CLI's default workflow options with kLintJobs lint workers.
[[nodiscard]] autonet::core::WorkflowOptions nren_options();

/// load → design → compile → render → lint, one "phase.<name>" span each.
void build_phases(autonet::core::Workflow& wf, const autonet::graph::Graph& input,
                  Tracer& tracer);

struct LintSplit {
  double asym_s = 0;
  double rest_s = 0;
  std::size_t findings = 0;
};

/// Times run_lint with only the bgp-asym-session rule enabled, then with
/// every other rule of `registry`, as spans "lint.bgp-asym-session" and
/// "lint.rest".
LintSplit lint_decomposition(Tracer& tracer, const autonet::nidb::Nidb& nidb,
                             const autonet::verify::RuleRegistry& registry);

/// Sets lint.bgp-asym-session_s, lint.rest_s and lint.findings.
void lint_metrics(Outcome& out, const LintSplit& split);

/// Times EmulatedNetwork::from_nidb and start() beside an operation, as
/// spans "emulation.boot" and "emulation.converge", and sets their metrics.
void boot_metrics(Outcome& out, Tracer& tracer, const autonet::nidb::Nidb& nidb,
                  const autonet::render::ConfigTree& configs);

/// Sets render.files, render.mb (when `configs` is given) and nidb.devices.
void output_sizes(Outcome& out, const autonet::nidb::Nidb& nidb,
                  const autonet::render::ConfigTree* configs);

/// Sets the emulation work counters of a started network.
void emulation_counters(Outcome& out, const autonet::emulation::EmulatedNetwork& net);

/// Links whose endpoints share an AS, in the graph's edge order.
[[nodiscard]] std::vector<autonet::graph::EdgeId> intra_as_edges(
    const autonet::graph::Graph& graph);

/// Sets a new seeded ospf_cost in [2, 20] on `edge`, different from its
/// current cost (1 when unset).
void change_ospf_cost(autonet::graph::Graph& graph, autonet::graph::EdgeId edge, Rng& rng);

/// Current value of a counter in the library's global telemetry registry.
[[nodiscard]] std::uint64_t global_counter(std::string_view name);

/// The seven Workflow phases, in pipeline order.
inline const std::vector<std::string> kPhases = {"load",   "design", "compile", "render",
                                                 "lint",   "deploy", "measure"};

/// Sets phase.<name>_s from the tracer's "phase.<name>" spans of `op`.
void phase_metrics(Outcome& out, const Tracer& tracer, std::size_t op);

}  // namespace perfbench
