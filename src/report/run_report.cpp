#include "report/run_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "core/workflow.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "verify/analysis/cache.hpp"

namespace autonet::report {

namespace {

// %.17g: doubles round-trip exactly, matching the checkpoint manifest,
// so a restored phase duration serializes to the same bytes as the
// fresh one.
std::string fmt_ms(double ms) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", ms);
  return buf;
}

// Journal precision: integral values exact, everything else %.6g — the
// same snap the experiment journal applies, so report metrics and
// journal metrics agree byte-for-byte.
std::string fmt_metric(double value) {
  if (value == static_cast<double>(static_cast<std::int64_t>(value))) {
    return std::to_string(static_cast<std::int64_t>(value));
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

void put_metric(std::vector<std::pair<std::string, double>>& out,
                std::string name, double value) {
  out.emplace_back(std::move(name), value);
}

double number_of(const nidb::Value& v) {
  if (auto i = v.as_int()) return static_cast<double>(*i);
  if (auto d = v.as_double()) return *d;
  return 0;
}

// Ordered key/number extraction used by diff_reports on "phases" (an
// array of {name, ms}) and on the flat "metrics"/"event_counts"
// objects.
std::vector<std::pair<std::string, double>> phases_of(const nidb::Value& report) {
  std::vector<std::pair<std::string, double>> out;
  const nidb::Value* phases = report.find("phases");
  if (phases == nullptr || !phases->is_array()) return out;
  for (const nidb::Value& entry : *phases->as_array()) {
    const nidb::Value* name = entry.find("name");
    const nidb::Value* ms = entry.find("ms");
    if (name != nullptr && name->as_string() != nullptr && ms != nullptr) {
      out.emplace_back(*name->as_string(), number_of(*ms));
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> object_numbers_of(
    const nidb::Value& report, const char* key) {
  std::vector<std::pair<std::string, double>> out;
  const nidb::Value* obj = report.find(key);
  if (obj == nullptr || !obj->is_object()) return out;
  for (const auto& [name, value] : *obj->as_object()) {
    out.emplace_back(name, number_of(value));
  }
  return out;
}

std::string string_of(const nidb::Value& report, const char* key) {
  const nidb::Value* v = report.find(key);
  return v != nullptr && v->as_string() != nullptr ? *v->as_string() : "";
}

bool past_threshold(double a, double b, double threshold_pct) {
  if (a == b) return false;
  if (a == 0) return true;  // appeared from nothing: always drift
  return std::fabs(b - a) / std::fabs(a) * 100.0 > threshold_pct;
}

// Walks the name-sorted union of two metric lists, reporting pairs
// where only one side has the key or the values drift past the
// threshold.
void diff_numbers(const std::vector<std::pair<std::string, double>>& a,
                  const std::vector<std::pair<std::string, double>>& b,
                  const std::string& kind, double threshold_pct,
                  std::vector<ReportDiff::Entry>& out) {
  std::map<std::string, double> mb(b.begin(), b.end());
  std::map<std::string, double> ma(a.begin(), a.end());
  for (const auto& [key, va] : ma) {
    auto it = mb.find(key);
    if (it == mb.end()) {
      out.push_back({kind, key, fmt_metric(va), "-"});
    } else if (past_threshold(va, it->second, threshold_pct)) {
      out.push_back({kind, key, fmt_metric(va), fmt_metric(it->second)});
    }
  }
  for (const auto& [key, vb] : mb) {
    if (ma.find(key) == ma.end()) {
      out.push_back({kind, key, "-", fmt_metric(vb)});
    }
  }
}

}  // namespace

double snap_metric(double value) {
  if (value == static_cast<double>(static_cast<std::int64_t>(value))) {
    return value;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return std::stod(buf);
}

std::vector<std::pair<std::string, double>> workflow_metrics(core::Workflow& wf,
                                                             bool deployed) {
  std::vector<std::pair<std::string, double>> m;
  const auto& deploy = wf.deploy_result();
  put_metric(m, "convergence.converged", deploy.convergence.converged ? 1 : 0);
  put_metric(m, "convergence.rounds",
             static_cast<double>(deploy.convergence.rounds));
  put_metric(m, "convergence.updates",
             static_cast<double>(deploy.convergence.updates));
  put_metric(m, "deploy.transfer_attempts", deploy.transfer_attempts);
  put_metric(m, "deploy.boot_attempts", deploy.boot_attempts);
  put_metric(m, "deploy.backoff_ms", deploy.backoff_ms);
  put_metric(m, "deploy.booted", static_cast<double>(deploy.booted.size()));
  put_metric(m, "deploy.failed_machines",
             static_cast<double>(deploy.failed_machines.size()));
  if (deployed) {
    const auto& stats = wf.network().stats();
    put_metric(m, "emulation.spf_runs", static_cast<double>(stats.spf_runs));
    put_metric(m, "emulation.lsa_floods",
               static_cast<double>(stats.lsa_floods));
    put_metric(m, "emulation.bgp_updates",
               static_cast<double>(stats.bgp_updates));
    put_metric(m, "emulation.bgp_withdrawals",
               static_cast<double>(stats.bgp_withdrawals));
    put_metric(m, "emulation.decision_reruns",
               static_cast<double>(stats.decision_reruns));
    put_metric(m, "emulation.convergence_rounds",
               static_cast<double>(stats.convergence_rounds));
    put_metric(m, "emulation.oscillations",
               static_cast<double>(stats.oscillations));
  }
  for (const auto& [phase, ms] : wf.timings().ms) {
    put_metric(m, "phase." + phase + ".ms", ms);
  }
  std::sort(m.begin(), m.end());
  return m;
}

std::string run_report_json(core::Workflow& wf) {
  const auto& deploy = wf.deploy_result();
  const bool deployed = deploy.success;
  const bool ran_deploy = wf.timings().ms.count("deploy") != 0;
  const char* status = !ran_deploy    ? "incomplete"
                       : !deployed    ? "failed"
                       : deploy.errors.empty() ? "ok"
                                               : "degraded";

  std::vector<std::pair<std::string, double>> metrics =
      workflow_metrics(wf, deployed);

  // Per-category and per-severity event counts over the full timeline.
  std::map<std::string, std::size_t> by_category;
  std::size_t by_severity[3] = {0, 0, 0};
  std::size_t total_events = 0;
  for (const char* phase : core::kPipeline) {
    auto it = wf.phase_events().find(phase);
    if (it == wf.phase_events().end()) continue;
    for (const obs::RecorderEvent& event : it->second) {
      ++by_category[event.category];
      ++by_severity[static_cast<std::size_t>(event.severity)];
      ++total_events;
    }
  }

  std::ostringstream out;
  out << "{\n";
  out << "  \"version\": 1,\n";
  out << "  \"status\": \"" << status << "\",\n";
  out << "  \"input_hash\": \"" << obs::json_escape(wf.input_hash()) << "\",\n";
  out << "  \"options_signature\": \"" << obs::json_escape(wf.options_signature())
      << "\",\n";
  // The compiled NIDB's content hash: lets two reports assert "same
  // design" (the incremental equivalence contract) without the artifact
  // directories. Empty until compile() has run.
  out << "  \"nidb_hash\": \""
      << (wf.has_nidb()
              ? std::to_string(verify::analysis::nidb_content_hash(wf.nidb()))
              : "")
      << "\",\n";

  out << "  \"phases\": [";
  bool first = true;
  for (const char* phase : core::kPipeline) {
    auto it = wf.timings().ms.find(phase);
    if (it == wf.timings().ms.end()) continue;
    if (!first) out << ",";
    first = false;
    out << "\n    {\"name\": \"" << phase << "\", \"ms\": " << fmt_ms(it->second)
        << "}";
  }
  out << (first ? "]," : "\n  ],") << "\n";

  out << "  \"metrics\": {";
  first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) out << ",";
    first = false;
    out << "\n    \"" << obs::json_escape(name)
        << "\": " << fmt_metric(snap_metric(value));
  }
  out << (first ? "}," : "\n  },") << "\n";

  const auto& conv = deploy.convergence;
  out << "  \"convergence\": {\"converged\": "
      << (conv.converged ? "true" : "false")
      << ", \"oscillating\": " << (conv.oscillating ? "true" : "false")
      << ", \"rounds\": " << conv.rounds << ", \"updates\": " << conv.updates
      << "},\n";

  out << "  \"event_counts\": {";
  first = true;
  for (const auto& [category, count] : by_category) {
    if (!first) out << ",";
    first = false;
    out << "\n    \"" << obs::json_escape(category) << "\": " << count;
  }
  out << (first ? "}," : "\n  },") << "\n";

  out << "  \"severity_counts\": {\"error\": " << by_severity[2]
      << ", \"info\": " << by_severity[0] << ", \"warning\": " << by_severity[1]
      << "},\n";

  out << "  \"events\": [";
  std::size_t emitted = 0;
  for (const char* phase : core::kPipeline) {
    auto it = wf.phase_events().find(phase);
    if (it == wf.phase_events().end()) continue;
    for (const obs::RecorderEvent& event : it->second) {
      out << (emitted == 0 ? "\n    " : ",\n    ") << obs::event_to_json(event);
      ++emitted;
    }
  }
  out << (emitted == 0 ? "]" : "\n  ]") << "\n";
  out << "}\n";
  return out.str();
}

void write_run_report(core::Workflow& wf, const std::string& path) {
  core::write_file_atomic(path, run_report_json(wf));
}

nidb::Value load_report(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read run report " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  nidb::Value doc = nidb::parse_json(ss.str());
  if (doc.find("version") == nullptr) {
    throw std::runtime_error(path + " is not a run report (no \"version\")");
  }
  return doc;
}

std::vector<obs::RecorderEvent> report_events(const nidb::Value& report) {
  std::vector<obs::RecorderEvent> out;
  const nidb::Value* events = report.find("events");
  if (events == nullptr || !events->is_array()) return out;
  out.reserve(events->as_array()->size());
  for (const nidb::Value& entry : *events->as_array()) {
    out.push_back(core::event_from_value(entry));
  }
  return out;
}

std::string ReportDiff::to_string() const {
  std::ostringstream out;
  for (const Entry& entry : entries) {
    out << entry.kind << " " << entry.key << ": " << entry.a << " -> "
        << entry.b << "\n";
  }
  return out.str();
}

ReportDiff diff_reports(const nidb::Value& a, const nidb::Value& b,
                        const DiffOptions& options) {
  ReportDiff diff;
  for (const char* key : {"status", "input_hash", "options_signature", "nidb_hash"}) {
    const std::string va = string_of(a, key);
    const std::string vb = string_of(b, key);
    if (va != vb) {
      diff.entries.push_back({"meta", key, va.empty() ? "-" : va,
                              vb.empty() ? "-" : vb});
    }
  }
  diff_numbers(phases_of(a), phases_of(b), "phase", options.threshold_pct,
               diff.entries);
  diff_numbers(object_numbers_of(a, "metrics"), object_numbers_of(b, "metrics"),
               "metric", options.threshold_pct, diff.entries);
  // Event-count drift is always structural, never noise: the threshold
  // does not apply.
  diff_numbers(object_numbers_of(a, "event_counts"),
               object_numbers_of(b, "event_counts"), "events", 0,
               diff.entries);
  return diff;
}

}  // namespace autonet::report
