#include "experiment/journal.hpp"

#include <stdexcept>

#include "experiment/campaign.hpp"
#include "nidb/value.hpp"

namespace autonet::experiment {

double RunResult::metric(const std::string& name, double fallback) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) return value;
  }
  return fallback;
}

std::string RunResult::to_json() const {
  nidb::Object object;
  object["id"] = id;
  object["index"] = static_cast<std::int64_t>(index);
  object["rep"] = repetition;
  object["seed"] = static_cast<std::int64_t>(seed);
  object["ok"] = ok;
  if (!error.empty()) object["error"] = error;
  // Conditional key: report-less runs serialize exactly as they did
  // before the field existed.
  if (!report_path.empty()) object["report"] = report_path;
  nidb::Object axes;
  for (const auto& [key, value] : axis_values) axes[key] = value;
  object["axes"] = std::move(axes);
  nidb::Object metric_obj;
  for (const auto& [key, value] : metrics) metric_obj[key] = value;
  object["metrics"] = std::move(metric_obj);
  return nidb::Value(std::move(object)).to_json();
}

namespace {

/// A result record; nullopt without an "id" (checkpoint pointers, the
/// identity line).
std::optional<RunResult> result_from(const nidb::Value& value) {
  const nidb::Value* id = value.find("id");
  if (id == nullptr || id->as_string() == nullptr) return std::nullopt;
  RunResult result;
  result.id = *id->as_string();
  if (const nidb::Value* v = value.find("index")) {
    result.index = static_cast<std::size_t>(v->as_int().value_or(0));
  }
  if (const nidb::Value* v = value.find("rep")) {
    result.repetition = static_cast<int>(v->as_int().value_or(0));
  }
  if (const nidb::Value* v = value.find("seed")) {
    result.seed = static_cast<std::uint64_t>(v->as_int().value_or(0));
  }
  if (const nidb::Value* v = value.find("ok")) {
    result.ok = v->as_bool().value_or(false);
  }
  if (const nidb::Value* v = value.find("error"); v && v->as_string()) {
    result.error = *v->as_string();
  }
  if (const nidb::Value* v = value.find("report"); v && v->as_string()) {
    result.report_path = *v->as_string();
  }
  if (const nidb::Value* v = value.find("axes")) {
    if (const nidb::Object* object = v->as_object()) {
      for (const auto& [key, axis_value] : *object) {
        result.axis_values.emplace_back(key, axis_value.to_display());
      }
    }
  }
  if (const nidb::Value* v = value.find("metrics")) {
    if (const nidb::Object* object = v->as_object()) {
      for (const auto& [key, metric_value] : *object) {
        result.metrics.emplace_back(key, metric_value.as_double().value_or(0));
      }
    }
  }
  return result;
}

}  // namespace

RunResult RunResult::from_json(const std::string& line) {
  std::optional<RunResult> result = result_from(nidb::parse_json(line));
  if (!result) throw std::runtime_error("journal line without an id");
  return std::move(*result);
}

std::string CheckpointRecord::to_json() const {
  nidb::Object inner;
  inner["run_id"] = run_id;
  inner["dir"] = dir;
  if (!reason.empty()) inner["reason"] = reason;
  nidb::Array done;
  for (const std::string& phase : phases) done.emplace_back(phase);
  inner["phases"] = nidb::Value(std::move(done));
  nidb::Object object;
  object["ckpt"] = nidb::Value(std::move(inner));
  return nidb::Value(std::move(object)).to_json();
}

namespace {

/// A {"ckpt":{...}} pointer; nullopt for anything else, a pointer
/// without a run id included.
std::optional<CheckpointRecord> checkpoint_from(const nidb::Value& value) {
  const nidb::Value* inner = value.find("ckpt");
  const nidb::Value* run_id = inner != nullptr ? inner->find("run_id") : nullptr;
  if (run_id == nullptr || run_id->as_string() == nullptr) return std::nullopt;
  CheckpointRecord record;
  record.run_id = *run_id->as_string();
  if (const nidb::Value* v = inner->find("dir"); v && v->as_string()) {
    record.dir = *v->as_string();
  }
  if (const nidb::Value* v = inner->find("reason"); v && v->as_string()) {
    record.reason = *v->as_string();
  }
  if (const nidb::Value* v = inner->find("phases")) {
    if (const nidb::Array* arr = v->as_array()) {
      for (const auto& phase : *arr) {
        if (const auto* s = phase.as_string()) record.phases.push_back(*s);
      }
    }
  }
  return record;
}

}  // namespace

std::optional<CheckpointRecord> CheckpointRecord::from_json(
    const std::string& line) {
  return checkpoint_from(nidb::parse_json(line));
}

void Journal::claim(const CampaignSpec& spec) {
  auto strings = [](std::initializer_list<std::string> items) {
    nidb::Array out;
    for (const std::string& item : items) out.emplace_back(item);
    return nidb::Value(std::move(out));
  };
  nidb::Array axes;
  nidb::Array options;
  nidb::Array incident;
  nidb::Array probes;
  for (const Axis& axis : spec.axes) {
    nidb::Array values{nidb::Value(axis.key)};
    values.insert(values.end(), axis.values.begin(), axis.values.end());
    axes.emplace_back(std::move(values));
  }
  for (const auto& [key, value] : spec.options) {
    options.push_back(strings({key, value}));
  }
  for (const emulation::IncidentStep& step : spec.incident) {
    incident.push_back(strings({emulation::to_string(step.action), step.a, step.b}));
  }
  for (const Probe& probe : spec.probes) {
    probes.push_back(strings({probe.kind, probe.src, probe.dst}));
  }
  nidb::Object identity{{"name", nidb::Value(spec.name)},
                        {"topology", nidb::Value(spec.topology)},
                        {"repetitions", nidb::Value(spec.repetitions)},
                        {"seed", nidb::Value(static_cast<std::int64_t>(spec.seed))},
                        {"axes", nidb::Value(std::move(axes))},
                        {"options", nidb::Value(std::move(options))},
                        {"incident", nidb::Value(std::move(incident))},
                        {"probes", nidb::Value(std::move(probes))}};
  journal_.claim(
      nidb::Value(nidb::Object{{"campaign", nidb::Value(std::move(identity))}})
          .to_json());
}

Journal::Contents Journal::read() const {
  Contents out;
  for (const nidb::Value& record : journal_.records()) {
    if (std::optional<CheckpointRecord> ckpt = checkpoint_from(record)) {
      std::string key = ckpt->run_id;
      out.checkpoints.insert_or_assign(std::move(key), std::move(*ckpt));
    } else if (std::optional<RunResult> result = result_from(record)) {
      // An ok result spends the run's pending checkpoint pointer: the
      // run resumed mid-pipeline and completed.
      if (result->ok && out.checkpoints.erase(result->id) != 0) {
        out.resumed.push_back(result->id);
      }
      std::string key = result->id;
      out.results.insert_or_assign(std::move(key), std::move(*result));
    }
  }
  return out;
}

std::map<std::string, RunResult> Journal::load() const { return read().results; }

std::map<std::string, CheckpointRecord> Journal::load_checkpoints() const {
  return read().checkpoints;
}

std::vector<std::string> Journal::resumed_ids() const { return read().resumed; }

void Journal::append(const RunResult& result) { journal_.append(result.to_json()); }

void Journal::append_checkpoint(const CheckpointRecord& record) {
  journal_.append(record.to_json());
}

}  // namespace autonet::experiment
