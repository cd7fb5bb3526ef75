#include "emulation/incident.hpp"

#include <sstream>

namespace autonet::emulation {

const char* to_string(IncidentAction action) {
  switch (action) {
    case IncidentAction::kFailLink: return "fail_link";
    case IncidentAction::kRestoreLink: return "restore_link";
    case IncidentAction::kFailNode: return "fail_node";
    case IncidentAction::kRestoreNode: return "restore_node";
  }
  return "?";
}

std::vector<IncidentStep> parse_incident_script(std::string_view text) {
  std::vector<IncidentStep> steps;
  std::istringstream in{std::string(text)};
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string verb, a, b, extra;
    if (!(fields >> verb)) continue;  // blank / comment-only line
    fields >> a >> b >> extra;
    const auto fail = [&](const std::string& why) {
      throw IncidentError("incident script line " + std::to_string(lineno) +
                          ": " + why);
    };
    IncidentStep step;
    if (verb == "fail_link" || verb == "restore_link") {
      step.action = verb == "fail_link" ? IncidentAction::kFailLink
                                        : IncidentAction::kRestoreLink;
      if (a.empty() || b.empty()) fail(verb + " needs two routers");
      if (!extra.empty()) fail("trailing tokens after " + verb);
      step.a = a;
      step.b = b;
    } else if (verb == "fail_node" || verb == "restore_node") {
      step.action = verb == "fail_node" ? IncidentAction::kFailNode
                                        : IncidentAction::kRestoreNode;
      if (a.empty()) fail(verb + " needs a router");
      if (!b.empty()) fail("trailing tokens after " + verb);
      step.a = a;
    } else {
      fail("unknown verb '" + verb + "'");
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

IncidentReport IncidentRunner::run(const std::vector<IncidentStep>& timeline) {
  IncidentReport report;
  ReachabilityMatrix before = net_->reachability();
  report.baseline_pairs = before.reachable_pairs();

  for (const IncidentStep& step : timeline) {
    IncidentStepOutcome out;
    out.step = step;
    out.pairs_before = before.reachable_pairs();

    switch (step.action) {
      case IncidentAction::kFailLink:
        out.applied = net_->fail_link(step.a, step.b);
        break;
      case IncidentAction::kRestoreLink:
        out.applied = net_->restore_link(step.a, step.b);
        break;
      case IncidentAction::kFailNode:
        out.applied = net_->fail_node(step.a);
        break;
      case IncidentAction::kRestoreNode:
        out.applied = net_->restore_node(step.a);
        break;
    }
    if (!out.applied) {
      out.error = core::Error{
          core::ErrorCategory::kConfig,
          step.b.empty() ? step.a : step.a + "--" + step.b,
          std::string(to_string(step.action)) + " did not apply", false};
      report.ok = false;
      out.pairs_after = out.pairs_before;
      report.steps.push_back(std::move(out));
      continue;
    }

    // Reconverge under the watchdog: bounded rounds and updates, with a
    // bounded number of enlarged-budget recovery attempts.
    std::size_t rounds = budget_.max_rounds;
    for (int attempt = 1;; ++attempt) {
      out.convergence = net_->start(rounds);
      out.convergence_attempts = attempt;
      const bool within_budget = out.convergence.converged &&
                                 out.convergence.updates <= budget_.max_updates;
      if (within_budget) break;
      if (attempt > budget_.recovery_retries) {
        out.error = core::Error{
            core::ErrorCategory::kConvergence,
            step.b.empty() ? step.a : step.a + "--" + step.b,
            out.convergence.oscillating
                ? "oscillation persisted after " + std::to_string(attempt) +
                      " attempts (period " +
                      std::to_string(out.convergence.period) + ")"
                : out.convergence.converged
                      ? "update budget exceeded (" +
                            std::to_string(out.convergence.updates) + " > " +
                            std::to_string(budget_.max_updates) + ")"
                      : "no convergence within " + std::to_string(rounds) +
                            " rounds",
            false};
        report.ok = false;
        break;
      }
      rounds *= 2;  // oscillation recovery: retry with a larger budget
    }

    ReachabilityMatrix after = net_->reachability();
    out.pairs_after = after.reachable_pairs();
    for (std::size_t i = 0; i < before.routers.size(); ++i) {
      for (std::size_t j = 0; j < before.routers.size(); ++j) {
        if (i == j) continue;
        const std::string pair = before.routers[i] + "->" + before.routers[j];
        if (before.reached[i][j] && !after.reached[i][j]) {
          out.lost.push_back(pair);
        } else if (!before.reached[i][j] && after.reached[i][j]) {
          out.regained.push_back(pair);
        }
      }
    }
    before = std::move(after);
    report.steps.push_back(std::move(out));
  }
  return report;
}

IncidentReport IncidentRunner::run_script(std::string_view script) {
  return run(parse_incident_script(script));
}

std::string IncidentStepOutcome::to_string() const {
  std::string out = emulation::to_string(step.action);
  out += " " + step.a;
  if (!step.b.empty()) out += " " + step.b;
  if (!applied) return out + ": NOT APPLIED";
  out += ": " + std::to_string(pairs_before) + " -> " +
         std::to_string(pairs_after) + " pairs (-" +
         std::to_string(lost.size()) + "/+" + std::to_string(regained.size()) +
         "), " +
         (convergence.converged
              ? "converged in " + std::to_string(convergence.rounds) + " rounds"
              : (convergence.oscillating ? "OSCILLATING" : "NOT CONVERGED"));
  if (convergence_attempts > 1) {
    out += " after " + std::to_string(convergence_attempts) + " attempts";
  }
  if (error) out += " [" + error->to_string() + "]";
  return out;
}

std::string IncidentReport::to_string() const {
  std::string out =
      "baseline: " + std::to_string(baseline_pairs) + " reachable pairs\n";
  for (const auto& step : steps) out += step.to_string() + "\n";
  out += ok ? "timeline completed\n" : "timeline completed WITH ERRORS\n";
  return out;
}

}  // namespace autonet::emulation
