// Scripted incident execution (paper §8: "creating tools to emulate
// workflow, or incidents"). An incident timeline is a sequence of
// fail/restore operations on links and nodes; the runner applies each
// step to a running EmulatedNetwork, reconverges the control plane under
// a watchdog budget (bounded rounds/updates, bounded oscillation
// recovery), and records the loopback-reachability delta every step —
// which pairs went dark, which came back.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "emulation/network.hpp"

namespace autonet::emulation {

enum class IncidentAction { kFailLink, kRestoreLink, kFailNode, kRestoreNode };

[[nodiscard]] const char* to_string(IncidentAction action);

struct IncidentStep {
  IncidentAction action;
  std::string a;  // router for node ops; first endpoint for link ops
  std::string b;  // second endpoint for link ops; empty for node ops
};

class IncidentError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses an incident script: one step per line, `#` comments and blank
/// lines skipped. Verbs: fail_link A B, restore_link A B, fail_node R,
/// restore_node R. Throws IncidentError on unknown verbs or bad arity.
[[nodiscard]] std::vector<IncidentStep> parse_incident_script(
    std::string_view text);

/// Watchdog limits for per-step reconvergence.
struct ConvergenceBudget {
  std::size_t max_rounds = 128;
  /// Abort when a reconvergence processes more updates than this.
  std::size_t max_updates = 1u << 20;
  /// On round exhaustion (or oscillation), rerun with a doubled round
  /// budget this many times before reporting a convergence error.
  int recovery_retries = 1;
};

struct IncidentStepOutcome {
  IncidentStep step;
  /// False when the step was a no-op (unknown router, non-adjacent pair,
  /// nothing to restore).
  bool applied = false;
  ConvergenceReport convergence;
  /// Reconvergence runs taken (1 = no watchdog recovery needed).
  int convergence_attempts = 0;
  std::size_t pairs_before = 0;
  std::size_t pairs_after = 0;
  /// Ordered "src->dst" pairs that changed state across this step.
  std::vector<std::string> lost;
  std::vector<std::string> regained;
  std::optional<core::Error> error;

  [[nodiscard]] std::string to_string() const;
};

struct IncidentReport {
  /// True when every step applied and reconverged within budget.
  bool ok = true;
  std::size_t baseline_pairs = 0;
  std::vector<IncidentStepOutcome> steps;

  /// Human-readable timeline, one line per step.
  [[nodiscard]] std::string to_string() const;
};

class IncidentRunner {
 public:
  explicit IncidentRunner(EmulatedNetwork& network,
                          ConvergenceBudget budget = {})
      : net_(&network), budget_(budget) {}

  /// Executes the timeline step by step. The network must have been
  /// start()ed already (the baseline reachability needs converged FIBs).
  IncidentReport run(const std::vector<IncidentStep>& timeline);
  /// Parses `script` (see parse_incident_script) and runs it.
  IncidentReport run_script(std::string_view script);

 private:
  EmulatedNetwork* net_;
  ConvergenceBudget budget_;
};

}  // namespace autonet::emulation
