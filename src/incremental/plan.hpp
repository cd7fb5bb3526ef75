// The recompute plan: which design rules, devices, and lint rules an
// incremental run may satisfy from its baseline, derived from snapshot
// hash comparison plus the static dirty-propagation edges documented in
// docs/incremental.md (dns depends on ip; a global-digest change
// dirties every device).
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "incremental/snapshot.hpp"

namespace autonet::incremental {

struct RecomputePlan {
  std::vector<std::string> reused_rules;  // design rules, pipeline order
  std::vector<std::string> dirty_rules;
  std::set<std::string> reused_devices;   // compile + render reuse set
  std::set<std::string> dirty_devices;
  /// Template-family lint rules may rehydrate from the baseline report.
  bool lint_reusable = false;

  /// One line per decision, for `autonet run --incremental --explain`.
  std::vector<std::string> explain;

  [[nodiscard]] bool rule_reused(std::string_view name) const;
};

/// Compares baseline vs current rule projections. `order` is the rule
/// execution order for this run; a rule missing from either snapshot is
/// dirty, and a rule whose dependency is dirty is dirty.
void plan_design(const Snapshot& baseline,
                 const std::map<std::string, std::uint64_t>& current,
                 const std::vector<std::string>& order, RecomputePlan& plan);

/// Compares baseline vs current device signatures. A global-digest
/// mismatch (overlay data, service overlays, platform) empties the reuse
/// set: the compiler's network-wide sections read all of it.
void plan_devices(const Snapshot& baseline, const DeviceSignatures& current,
                  RecomputePlan& plan);

/// Whether the baseline lint report can rehydrate template-family
/// findings: lint options and the template sets must be unchanged.
void plan_lint(const Snapshot& baseline, const std::string& lint_sig,
               const std::map<std::string, std::uint64_t>& template_hashes,
               RecomputePlan& plan);

}  // namespace autonet::incremental
