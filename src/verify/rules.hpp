// The pluggable static-analysis engine (paper §8). Checks are Rules with
// stable ids, categories, default severities and provenance metadata,
// registered in a RuleRegistry; run_lint() drives every enabled rule over
// a LintInput (compiled NIDB and/or template sets), records one obs span
// per rule ("lint.<id>"), and returns a finalized deterministic Report.
// Per-rule enable/disable and severity overrides come from LintOptions,
// loadable from an `.autonetlint` config or built from CLI flags.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cancel.hpp"
#include "verify/report.hpp"

namespace autonet::nidb {
class Nidb;
}
namespace autonet::render {
class TemplateStore;
}

namespace autonet::verify {

struct RuleInfo {
  /// Stable id, doubles as the finding code ("dup-address").
  std::string id;
  /// Rule family: addressing, naming, render, bgp, ospf, signaling,
  /// template.
  std::string category;
  Severity default_severity = Severity::kError;
  /// One-line description (rule catalogue, SARIF rule metadata).
  std::string description;
  /// The design rule whose output this rule checks, when known
  /// ("design.ip", "design.ibgp", ...); copied into findings.
  std::string origin;
};

namespace detail {
struct NidbIndex;
}
namespace analysis {
class Workspace;
}

/// What a lint run analyses. Any subset may be present; rules that need
/// an absent input are skipped.
struct LintInput {
  /// Compiled Resource Database (NIDB + signaling rules).
  const nidb::Nidb* nidb = nullptr;
  /// Compiled template sets (undefined/unused variable analysis).
  const render::TemplateStore* templates = nullptr;
  /// Raw template texts (name, text) linted from source — additionally
  /// catches parse errors such as unterminated blocks.
  std::vector<std::pair<std::string, std::string>> template_files{};
};

/// Everything a rule sees. `index` is the shared gather pass over the
/// NIDB, built once per run; non-null iff input->nidb is non-null.
struct RuleContext {
  const LintInput* input = nullptr;
  const detail::NidbIndex* index = nullptr;
  /// Shared analysis state (symbolic model, predicted FIBs, what-if
  /// cache); non-null iff input->nidb is non-null. Lazy: rules that
  /// never touch it cost nothing.
  const analysis::Workspace* analysis = nullptr;
  /// Threads a rule may run its own work on: LintOptions::jobs resolved
  /// (one per hardware thread when 0), from 1 to 8. With 1 a rule works
  /// on the thread that calls it.
  std::size_t jobs = 1;
};

/// Sink a rule emits findings through: the engine binds the rule id, its
/// effective severity, and provenance defaults.
class Emitter {
 public:
  Emitter(const RuleInfo& info, Severity severity, Report& report)
      : info_(&info), severity_(severity), report_(&report) {}

  void emit(std::string device, std::string message, std::string path = "");
  [[nodiscard]] std::size_t emitted() const { return emitted_; }
  [[nodiscard]] Severity severity() const { return severity_; }

 private:
  const RuleInfo* info_;
  Severity severity_;
  Report* report_;
  std::size_t emitted_ = 0;
};

struct Rule {
  RuleInfo info;
  std::function<void(const RuleContext&, Emitter&)> run;
  bool needs_nidb = false;
  bool needs_templates = false;
};

class RuleRegistry {
 public:
  /// Registers a rule; throws std::invalid_argument on duplicate ids.
  void add(Rule rule);

  [[nodiscard]] const std::vector<Rule>& rules() const { return rules_; }
  [[nodiscard]] const Rule* find(std::string_view id) const;

  /// The built-in analyses: the ported NIDB consistency checks, the
  /// control-plane signaling analysis, and the template analysis.
  [[nodiscard]] static const RuleRegistry& builtin();

  /// builtin() plus the semantic "analysis" family (predicted-FIB
  /// reachability/loop/blackhole/what-if). Used by `autonet analyze`
  /// and the workflow gate's opt-in analysis mode — kept out of
  /// builtin() because these rules judge forwarding outcomes, not
  /// configuration shape.
  [[nodiscard]] static const RuleRegistry& with_analysis();

 private:
  std::vector<Rule> rules_;
  std::map<std::string, std::size_t, std::less<>> by_id_;
};

/// Per-run configuration: rule enable/disable and severity overrides.
struct LintOptions {
  /// id -> explicitly enabled/disabled (absent = enabled).
  std::map<std::string, bool, std::less<>> enabled;
  /// id -> severity override.
  std::map<std::string, Severity, std::less<>> severity;
  /// Gate threshold used by callers: fail on warnings too.
  bool fail_on_warning = false;
  /// Worker threads for rule execution, and for the what-if sweep within
  /// its rule; 0 = one per hardware thread; at most 8 either way. Not part
  /// of the workflow options signature: it changes scheduling only, never
  /// findings.
  std::size_t jobs = 0;

  [[nodiscard]] bool rule_enabled(std::string_view id) const;
  [[nodiscard]] Severity severity_for(const RuleInfo& info) const;
  /// True when the report crosses this configuration's failure
  /// threshold (any error; warnings too with fail_on_warning).
  [[nodiscard]] bool should_fail(const Report& report) const;
  /// Later-loaded options win key by key.
  void merge(const LintOptions& other);

  /// Parses `.autonetlint` text. Line-oriented:
  ///   # comment
  ///   disable <rule-id>
  ///   enable <rule-id>
  ///   severity <rule-id> error|warning
  ///   fail-on error|warning
  /// Throws std::runtime_error naming the offending line and token on
  /// malformed input; `source` (a file name), when given, prefixes the
  /// message as "<source>:<line>".
  [[nodiscard]] static LintOptions parse_config(std::string_view text,
                                                const std::string& source = "");
  /// Reads and parses a config file; throws std::runtime_error when
  /// unreadable.
  [[nodiscard]] static LintOptions load_config_file(const std::string& path);
};

/// Runs every enabled applicable rule and returns a finalized Report.
/// Rule bodies execute on a worker pool (LintOptions::jobs); findings,
/// spans, counters and flight-recorder events are merged on the calling
/// thread in registry order, so the report and all telemetry stay
/// byte-deterministic regardless of scheduling. Telemetry: one
/// "lint.<rule-id>" span per rule plus lint.* counters in
/// obs::Registry::current(). An optional RunControl is polled before
/// each rule, so cancellation interrupts a lint within one rule's work.
[[nodiscard]] Report run_lint(const LintInput& input, const LintOptions& options = {},
                              const RuleRegistry& registry = RuleRegistry::builtin(),
                              core::RunControl* control = nullptr);

/// SARIF 2.1.0 export of a finalized report, with rule metadata from the
/// registry (consumed by CI annotation tooling).
[[nodiscard]] std::string to_sarif(const Report& report,
                                   const RuleRegistry& registry =
                                       RuleRegistry::builtin());

// Registration hooks for the built-in analysis families (internal; used
// by RuleRegistry::builtin() and tests that build custom registries).
void register_nidb_rules(RuleRegistry& registry);
void register_signaling_rules(RuleRegistry& registry);
void register_template_rules(RuleRegistry& registry);
void register_analysis_rules(RuleRegistry& registry);

}  // namespace autonet::verify
