// Declarative experiment campaigns (the paper's "specify, deploy,
// measure" loop, lifted from one invocation to a swept matrix). A
// campaign names a base topology, parameter axes (each a workflow knob
// with a list of values), scenario hooks (an incident timeline applied
// to every deployed network, measurement probes), and a repetition
// count; expansion takes the Cartesian product of the axes times the
// repetitions and derives a deterministic per-run seed from the run's
// identity, so the matrix is a pure function of the spec.
//
// The spec format is line-oriented like the incident scripts (`#`
// comments, blank lines skipped):
//
//   campaign rr-sweep
//   topology small-internet
//   repetitions 3
//   seed 42
//   axis ibgp mesh rr rr-auto
//   axis topology line:8 ring:8 small-internet
//   axis backoff_base_ms range 50 150 step 50
//   option platform netkit
//   incident fail_link as20r1 as20r2
//   incident restore_link as20r1 as20r2
//   probe reachability
//   probe traceroute as300r2 as100r2
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/workflow.hpp"
#include "emulation/incident.hpp"
#include "graph/graph.hpp"

namespace autonet::experiment {

class CampaignError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One swept parameter: a known workflow knob and the values it takes.
struct Axis {
  std::string key;
  std::vector<std::string> values;
};

/// A measurement probe executed against every successfully deployed run.
struct Probe {
  /// "reachability" (loopback matrix summary) or "traceroute".
  std::string kind;
  std::string src;  // traceroute only
  std::string dst;  // traceroute only
};

struct CampaignSpec {
  std::string name;
  /// Base topology (see resolve_topology); an axis named "topology"
  /// overrides it per run.
  std::string topology = "small-internet";
  int repetitions = 1;
  std::uint64_t seed = 0;
  /// Default worker count for the runner (0 = hardware concurrency).
  int jobs = 0;
  std::vector<Axis> axes;
  /// Fixed (non-swept) knob assignments, applied before axis values.
  std::vector<std::pair<std::string, std::string>> options;
  /// Incident timeline run against every deployed network.
  std::vector<emulation::IncidentStep> incident;
  std::vector<Probe> probes;

  /// Total runs in the expanded matrix.
  [[nodiscard]] std::size_t run_count() const;
};

/// One cell of the expanded matrix.
struct RunSpec {
  /// Position in the deterministic matrix order (axis-major, repetition
  /// last); doubles as the journal's tiebreaker.
  std::size_t index = 0;
  /// Stable identity: "ibgp=mesh,topology=line:8/rep0". Journal entries
  /// are keyed by this, so a resumed campaign recognises completed runs
  /// regardless of execution order.
  std::string id;
  /// Axis key/value assignments in axis-declaration order.
  std::vector<std::pair<std::string, std::string>> axis_values;
  int repetition = 0;
  /// Deterministic per-run seed: FNV-1a over (campaign seed, run id).
  /// Feeds deploy backoff jitter so retries replay byte-identically.
  std::uint64_t seed = 0;
  /// Topology spec after axis overrides.
  std::string topology;
  /// Fully assembled workflow options for this run.
  core::WorkflowOptions workflow;
};

/// Parses a campaign spec. Throws CampaignError on unknown directives,
/// unknown axis/option keys, or values the key cannot take.
[[nodiscard]] CampaignSpec parse_campaign(std::string_view text);
/// Reads and parses a campaign file.
[[nodiscard]] CampaignSpec load_campaign_file(const std::string& path);

/// Expands the spec into its run matrix (Cartesian product of axes,
/// times repetitions), assembling per-run WorkflowOptions and seeds.
[[nodiscard]] std::vector<RunSpec> expand(const CampaignSpec& spec);

/// Resolves a topology spec: a builtin name (figure5, small-internet,
/// bad-gadget, nren), a generator spec (line:N, ring:N, star:N, mesh:N,
/// grid:WxH, multi-as:N), or a topology file path.
[[nodiscard]] graph::Graph resolve_topology(const std::string& spec);

}  // namespace autonet::experiment
