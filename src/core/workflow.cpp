#include "core/workflow.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/hash.hpp"
#include "deploy/archive.hpp"
#include "incremental/hot_apply.hpp"
#include "nidb/value.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"

namespace autonet::core {

namespace {

/// The pipeline order checkpoints restore in; save_phase() invalidates
/// everything after a freshly executed phase.
constexpr const char* kPipeline[] = {"load",   "design", "compile", "render",
                                     "lint",   "deploy", "measure"};

// --- Phase-state (de)serialization ----------------------------------------
// DeployResult, lint Report, and the measure outcome have no library
// from_json; the encodings here are checkpoint-private.

nidb::Value string_list_to_value(const std::vector<std::string>& items) {
  nidb::Array out;
  for (const std::string& s : items) out.emplace_back(s);
  return nidb::Value(std::move(out));
}

std::vector<std::string> string_list_from_value(const nidb::Value* v) {
  std::vector<std::string> out;
  if (v == nullptr || !v->is_array()) return out;
  for (const auto& e : *v->as_array()) {
    if (const auto* s = e.as_string()) out.push_back(*s);
  }
  return out;
}

ErrorCategory error_category_from_string(const std::string& name) {
  for (ErrorCategory c :
       {ErrorCategory::kTransfer, ErrorCategory::kBoot, ErrorCategory::kHostDown,
        ErrorCategory::kDeadline, ErrorCategory::kConvergence,
        ErrorCategory::kConfig, ErrorCategory::kMeasurement,
        ErrorCategory::kInternal}) {
    if (name == to_string(c)) return c;
  }
  return ErrorCategory::kInternal;
}

nidb::Value deploy_result_to_value(const deploy::DeployResult& r) {
  nidb::Object out;
  out["success"] = r.success;
  out["degraded"] = r.degraded;
  out["booted"] = string_list_to_value(r.booted);
  out["failed_machines"] = string_list_to_value(r.failed_machines);
  out["transfer_attempts"] = static_cast<std::int64_t>(r.transfer_attempts);
  out["boot_attempts"] = static_cast<std::int64_t>(r.boot_attempts);
  out["backoff_ms"] = static_cast<std::int64_t>(r.backoff_ms);
  nidb::Object conv;
  conv["converged"] = r.convergence.converged;
  conv["oscillating"] = r.convergence.oscillating;
  conv["rounds"] = static_cast<std::int64_t>(r.convergence.rounds);
  conv["period"] = static_cast<std::int64_t>(r.convergence.period);
  conv["updates"] = static_cast<std::int64_t>(r.convergence.updates);
  if (r.convergence.timeout) {
    nidb::Object t;
    t["rounds_completed"] =
        static_cast<std::int64_t>(r.convergence.timeout->rounds_completed);
    t["budget_rounds"] =
        static_cast<std::int64_t>(r.convergence.timeout->budget_rounds);
    t["unsettled"] = string_list_to_value(r.convergence.timeout->unsettled_routers);
    conv["timeout"] = nidb::Value(std::move(t));
  }
  out["convergence"] = nidb::Value(std::move(conv));
  nidb::Array errors;
  for (const Error& e : r.errors) {
    nidb::Object err;
    err["category"] = std::string(to_string(e.category));
    err["subject"] = e.subject;
    err["message"] = e.message;
    err["retryable"] = e.retryable;
    errors.emplace_back(std::move(err));
  }
  out["errors"] = nidb::Value(std::move(errors));
  return nidb::Value(std::move(out));
}

deploy::DeployResult deploy_result_from_value(const nidb::Value& v) {
  deploy::DeployResult r;
  if (const auto* f = v.find("success")) r.success = f->as_bool().value_or(false);
  if (const auto* f = v.find("degraded")) r.degraded = f->as_bool().value_or(false);
  r.booted = string_list_from_value(v.find("booted"));
  r.failed_machines = string_list_from_value(v.find("failed_machines"));
  if (const auto* f = v.find("transfer_attempts")) {
    r.transfer_attempts = static_cast<int>(f->as_int().value_or(0));
  }
  if (const auto* f = v.find("boot_attempts")) {
    r.boot_attempts = static_cast<int>(f->as_int().value_or(0));
  }
  if (const auto* f = v.find("backoff_ms")) {
    r.backoff_ms = static_cast<int>(f->as_int().value_or(0));
  }
  if (const auto* conv = v.find("convergence")) {
    if (const auto* f = conv->find("converged")) {
      r.convergence.converged = f->as_bool().value_or(false);
    }
    if (const auto* f = conv->find("oscillating")) {
      r.convergence.oscillating = f->as_bool().value_or(false);
    }
    if (const auto* f = conv->find("rounds")) {
      r.convergence.rounds = static_cast<std::size_t>(f->as_int().value_or(0));
    }
    if (const auto* f = conv->find("period")) {
      r.convergence.period = static_cast<std::size_t>(f->as_int().value_or(0));
    }
    if (const auto* f = conv->find("updates")) {
      r.convergence.updates = static_cast<std::size_t>(f->as_int().value_or(0));
    }
    if (const auto* t = conv->find("timeout")) {
      ConvergenceTimeout timeout;
      if (const auto* f = t->find("rounds_completed")) {
        timeout.rounds_completed = static_cast<std::size_t>(f->as_int().value_or(0));
      }
      if (const auto* f = t->find("budget_rounds")) {
        timeout.budget_rounds = static_cast<std::size_t>(f->as_int().value_or(0));
      }
      timeout.unsettled_routers = string_list_from_value(t->find("unsettled"));
      r.convergence.timeout = std::move(timeout);
    }
  }
  if (const auto* errors = v.find("errors"); errors != nullptr && errors->is_array()) {
    for (const auto& e : *errors->as_array()) {
      Error err;
      if (const auto* f = e.find("category"); f != nullptr && f->as_string()) {
        err.category = error_category_from_string(*f->as_string());
      }
      if (const auto* f = e.find("subject"); f != nullptr && f->as_string()) {
        err.subject = *f->as_string();
      }
      if (const auto* f = e.find("message"); f != nullptr && f->as_string()) {
        err.message = *f->as_string();
      }
      if (const auto* f = e.find("retryable")) {
        err.retryable = f->as_bool().value_or(false);
      }
      r.errors.push_back(std::move(err));
    }
  }
  return r;
}

// One decoder per phase artifact, shared by checkpoint restore and the
// partial-mode baseline load. The NIDB decodes with Nidb::from_json.

anm::AbstractNetworkModel anm_from_artifact(const std::string& artifact) {
  anm::AbstractNetworkModel anm;
  anm_from_value(nidb::parse_json(artifact), anm);
  return anm;
}

render::ConfigTree configs_from_artifact(const std::string& artifact) {
  const nidb::Value doc = nidb::parse_json(artifact);
  const auto* files = doc.as_object();
  if (files == nullptr) throw CheckpointError("render checkpoint is not an object");
  render::ConfigTree tree;
  for (const auto& [path, content] : *files) {
    if (const auto* text = content.as_string()) tree.put(path, *text);
  }
  return tree;
}

verify::Report lint_report_from_json(const std::string& text) {
  const nidb::Value doc = nidb::parse_json(text);
  verify::Report report;
  if (const auto* findings = doc.find("findings");
      findings != nullptr && findings->is_array()) {
    for (const auto& f : *findings->as_array()) {
      verify::Finding finding;
      if (const auto* sev = f.find("severity"); sev != nullptr && sev->as_string()) {
        finding.severity = *sev->as_string() == "warning"
                               ? verify::Severity::kWarning
                               : verify::Severity::kError;
      }
      if (const auto* s = f.find("code"); s != nullptr && s->as_string()) {
        finding.code = *s->as_string();
      }
      if (const auto* s = f.find("device"); s != nullptr && s->as_string()) {
        finding.device = *s->as_string();
      }
      if (const auto* s = f.find("message"); s != nullptr && s->as_string()) {
        finding.message = *s->as_string();
      }
      if (const auto* s = f.find("path"); s != nullptr && s->as_string()) {
        finding.path = *s->as_string();
      }
      if (const auto* s = f.find("origin"); s != nullptr && s->as_string()) {
        finding.origin = *s->as_string();
      }
      report.findings.push_back(std::move(finding));
    }
  }
  report.finalize();
  return report;
}

/// How a store's recorded run compares with this one: same input and
/// options (kExact), options that build the same design, compile, render
/// and lint results (kBuild), or neither (kOther).
enum class StoreMatch { kOther, kBuild, kExact };

StoreMatch match_store(const CheckpointStore& store, const std::string& input_hash,
                       const std::string& options_sig, const std::string& build_sig) {
  if (store.meta("options") == options_sig) {
    return store.meta("input_hash") == input_hash ? StoreMatch::kExact
                                                  : StoreMatch::kBuild;
  }
  // Stores recorded before the signature split carry no "options_build"
  // meta and match on the full signature only, which is strictly more
  // conservative.
  const std::string build = store.meta("options_build");
  return !build.empty() && build == build_sig ? StoreMatch::kBuild
                                              : StoreMatch::kOther;
}

}  // namespace

std::string IncrementalReport::to_text() const {
  std::ostringstream out;
  out << "incremental: mode=" << mode << "\n";
  if (!delta.empty()) {
    out << "input delta (" << delta.size() << " change"
        << (delta.size() == 1 ? "" : "s") << "):\n"
        << delta.to_text();
  }
  for (const std::string& line : plan.explain) out << line << "\n";
  if (mode == "partial") {
    out << "compile: " << devices_reused_compile << " device(s) reused\n";
    out << "render: " << devices_reused_render << " device(s) reused\n";
    out << "lint: " << lint_rules_reused << " template rule(s) replayed\n";
  }
  if (hot_applied) out << "deploy: delta hot-applied to the running emulation\n";
  return out.str();
}

double PhaseTimings::total() const {
  double sum = 0;
  for (const auto& [phase, value] : ms) sum += value;
  return sum;
}

std::string PhaseTimings::to_string() const {
  std::ostringstream out;
  for (const char* phase :
       {"load", "design", "compile", "render", "lint", "deploy", "measure"}) {
    auto it = ms.find(phase);
    if (it != ms.end()) out << phase << "=" << it->second << "ms ";
  }
  out << "total=" << total() << "ms";
  return out.str();
}

Workflow::Workflow(WorkflowOptions options) : options_(std::move(options)) {}
Workflow::~Workflow() = default;
Workflow::Workflow(Workflow&&) noexcept = default;
Workflow& Workflow::operator=(Workflow&&) noexcept = default;

// Each phase runs under an obs span (in the workflow's registry, made
// current for the duration so every layer's instrumentation lands in the
// same place); the PhaseTimings entry is the span's duration. The
// PhaseScope makes flight-recorder events carry this phase name and
// phase-relative timestamps; at phase end the recorder is drained and
// the phase's slice kept for the run report (and, when checkpointing,
// persisted next to the phase artifact). On interruption the unsaved
// recorder tail is dumped next to the checkpoint before rethrowing.
template <typename F>
void Workflow::timed(const std::string& phase, F&& f) {
  obs::Registry& registry = telemetry();
  obs::RegistryScope use(registry);
  obs::PhaseScope phase_scope(phase);
  obs::Span span(registry, phase);
  try {
    f();
  } catch (...) {
    span.stop_ms();
    dump_flight_tail(phase);
    throw;
  }
  timings_.ms[phase] = span.stop_ms();
  if (registry.enabled()) {
    std::vector<obs::RecorderEvent> slice;
    for (obs::RecorderEvent& event : registry.recorder().drain()) {
      // Out-of-phase stragglers (checkpoint writes after the previous
      // drain) are bookkeeping, not phase work: they are excluded so a
      // phase's slice is a pure function of the phase body.
      if (event.phase == phase) slice.push_back(std::move(event));
    }
    phase_events_[phase] = std::move(slice);
  }
}

// --- Checkpoint plumbing ---------------------------------------------------

Workflow& Workflow::checkpoint_to(const std::string& dir) {
  ckpt_ = std::make_unique<CheckpointStore>(dir);
  return *this;
}

Workflow& Workflow::incremental_from(const std::string& baseline_dir) {
  baseline_ = std::make_unique<CheckpointStore>(baseline_dir);
  incr_.enabled = true;
  return *this;
}

std::string Workflow::signature_text(bool include_deploy) const {
  std::ostringstream sig;
  sig << "platform=" << options_.platform << ";ibgp=" << options_.ibgp
      << ";isis=" << options_.enable_isis << ";dns=" << options_.enable_dns
      << ";rpki=" << options_.enable_rpki << ";lint=" << options_.lint.enabled
      << "," << options_.lint.fail_fast << ","
      << options_.lint.options.fail_on_warning << ","
      << options_.lint.analysis;
  if (include_deploy) {
    sig << ";deploy=" << options_.deploy.max_transfer_attempts << ","
        << options_.deploy.max_boot_attempts << ","
        << options_.deploy.backoff_base_ms << ","
        << options_.deploy.backoff_max_ms << ","
        << options_.deploy.backoff_seed << ","
        << options_.deploy.transfer_deadline_ms << ","
        << options_.deploy.boot_deadline_ms << ","
        << options_.deploy.allow_partial << "," << options_.deploy.min_booted
        << "," << options_.deploy.min_host_quorum;
  }
  // The design-rule knobs: previously absent, which let a checkpoint
  // recorded under different OSPF/IP/RR settings restore silently.
  sig << ";ospf=" << options_.ospf.default_area << ","
      << options_.ospf.default_cost << "," << options_.ospf.cost_attr << ","
      << options_.ospf.area_attr
      << ";ip=" << options_.ip.infra_block << "," << options_.ip.loopback_block
      << "," << options_.ip.ipv6 << "," << options_.ip.ipv6_infra_block << ","
      << options_.ip.ipv6_loopback_block
      << ";rr=" << options_.rr_select.per_as << "," << options_.rr_select.metric
      << "," << options_.rr_select.min_as_size;
  for (const auto& [id, on] : options_.lint.options.enabled) {
    sig << ";L:" << id << "=" << on;
  }
  for (const auto& [id, sev] : options_.lint.options.severity) {
    sig << ";S:" << id << "=" << static_cast<int>(sev);
  }
  return sig.str();
}

std::string Workflow::options_signature() const {
  return std::to_string(fnv1a(signature_text(true)));
}

std::string Workflow::build_signature() const {
  return std::to_string(fnv1a(signature_text(false)));
}

std::string Workflow::lint_signature() const {
  std::ostringstream sig;
  sig << "lint=" << options_.lint.enabled << "," << options_.lint.fail_fast
      << "," << options_.lint.options.fail_on_warning << ","
      << options_.lint.analysis;
  for (const auto& [id, on] : options_.lint.options.enabled) {
    sig << ";L:" << id << "=" << on;
  }
  for (const auto& [id, sev] : options_.lint.options.severity) {
    sig << ";S:" << id << "=" << static_cast<int>(sev);
  }
  return std::to_string(fnv1a(sig.str()));
}

incremental::DesignSpec Workflow::design_spec() const {
  incremental::DesignSpec spec;
  spec.ibgp = options_.ibgp;
  spec.enable_isis = options_.enable_isis;
  spec.enable_dns = options_.enable_dns;
  spec.enable_rpki = options_.enable_rpki;
  spec.ospf = options_.ospf;
  spec.ip = options_.ip;
  spec.rr_select = options_.rr_select;
  return spec;
}

// Both attached stores are compared with this run the same way
// (match_store). The own checkpoint resumes its recorded prefix on an
// exact match and is discarded otherwise: it only describes one (input,
// options) pair. The baseline is warm on an exact match, partial on a
// build-only match with a readable snapshot.json, and cold otherwise.
void Workflow::choose_reuse(const graph::Graph& input) {
  // The input signature is kept even without a store: run reports embed
  // it so two reports are comparable without the checkpoint directory.
  input_hash_ = std::to_string(fnv1a(graph_to_value(input).to_json(false)));
  const std::string options_sig = options_signature();
  const std::string build_sig = build_signature();
  auto match = [&](const CheckpointStore& store) {
    return match_store(store, input_hash_, options_sig, build_sig);
  };
  if (ckpt_ != nullptr) {
    if (!ckpt_->phases().empty() && match(*ckpt_) != StoreMatch::kExact) {
      ckpt_->discard();
    }
    if (ckpt_->meta("input_hash") != input_hash_) {
      ckpt_->set_meta("input_hash", input_hash_);
    }
    if (ckpt_->meta("options") != options_sig) {
      ckpt_->set_meta("options", options_sig);
    }
    if (ckpt_->meta("options_build") != build_sig) {
      ckpt_->set_meta("options_build", build_sig);
    }
  }
  if (baseline_ == nullptr) return;
  std::string cold_reason;
  switch (match(*baseline_)) {
    case StoreMatch::kExact:
      reuse_ = ReuseMode::kWarm;
      incr_.plan.explain.emplace_back(
          "input unchanged: every phase restores from the baseline");
      break;
    case StoreMatch::kBuild:
      cold_reason = load_baseline();
      if (!cold_reason.empty()) break;
      reuse_ = ReuseMode::kPartial;
      if (baseline_->meta("input_hash") == input_hash_) {
        incr_.plan.explain.emplace_back(
            "input unchanged, deploy options differ: build phases reuse, "
            "deploy runs fresh");
      }
      break;
    case StoreMatch::kOther:
      cold_reason = "baseline options differ (or baseline is empty)";
      break;
  }
  if (!cold_reason.empty()) {
    incr_.plan.explain.push_back(cold_reason + ": full recompute");
  }
  static constexpr const char* kModeNames[] = {"cold", "warm", "partial"};
  incr_.mode = kModeNames[static_cast<int>(reuse_)];
}

// Partial mode consults the baseline in every build phase, so its
// snapshot and artifacts are decoded once, here, and kept only when all
// of them decode.
std::string Workflow::load_baseline() {
  BaselineState base;
  std::ifstream snap_in(baseline_->dir() + "/snapshot.json", std::ios::binary);
  std::optional<incremental::Snapshot> snap;
  if (snap_in) {
    std::ostringstream text;
    text << snap_in.rdbuf();
    snap = incremental::Snapshot::from_json(text.str());
  }
  if (!snap) return "baseline left no usable snapshot.json";
  base.snap = std::move(*snap);
  try {
    if (baseline_->has_phase("design")) {
      base.anm = anm_from_artifact(baseline_->artifact("design"));
    }
    if (baseline_->has_phase("compile")) {
      base.nidb = nidb::Nidb::from_json(baseline_->artifact("compile"));
    }
    if (baseline_->has_phase("render")) {
      base.configs = configs_from_artifact(baseline_->artifact("render"));
    }
    if (baseline_->has_phase("lint")) {
      base.lint = lint_report_from_json(baseline_->artifact("lint"));
    }
  } catch (const std::exception&) {
    return "baseline artifacts unreadable";
  }
  base_ = std::move(base);
  return "";
}

bool Workflow::try_restore(const std::string& phase) {
  if (fresh_executed_) return false;
  // Own checkpoint first (resume); in warm incremental mode a phase the
  // own store lacks restores from the baseline instead.
  CheckpointStore* src = nullptr;
  if (ckpt_ != nullptr && ckpt_->has_phase(phase)) {
    src = ckpt_.get();
  } else if (reuse_ == ReuseMode::kWarm && baseline_->has_phase(phase)) {
    src = baseline_.get();
  }
  if (src == nullptr) return false;
  obs::Registry& registry = telemetry();
  obs::RegistryScope use(registry);
  try {
    restore_phase_state(phase, src->artifact(phase));
    // Replay the phase's persisted flight-recorder slice so the run
    // report's timeline is byte-identical to an uninterrupted run's. A
    // record without a slice (pre-recorder checkpoint) restores with an
    // empty one.
    if (src->has_events(phase)) {
      phase_events_[phase] = events_from_jsonl(src->events(phase));
    } else {
      phase_events_[phase] = {};
    }
  } catch (const std::exception&) {
    // A corrupt or stale artifact is not fatal: execute the phase fresh
    // (which re-records it and invalidates anything downstream).
    phase_events_.erase(phase);
    return false;
  }
  timings_.ms[phase] = src->phase_ms(phase);
  restored_.push_back(phase);
  registry.counter("ckpt.phase_restored").inc();
  if (src == baseline_.get()) {
    registry.counter("incr.phase_reused").inc();
    // Chain: record the phase into this run's own store so the next run
    // in a campaign can use this directory as its baseline.
    if (ckpt_ != nullptr) save_phase(phase);
  }
  if (restored_.size() == 1) registry.counter("ckpt.resume").inc();
  return true;
}

void Workflow::begin_phase(const std::string& phase) {
  // Any fresh execution invalidates downstream checkpoints — they derive
  // from state this phase is about to recompute.
  fresh_executed_ = true;
  core::checkpoint(control_, "phase." + phase);
}

void Workflow::save_phase(const std::string& phase) {
  if (ckpt_ == nullptr) return;
  obs::Registry& registry = telemetry();
  obs::RegistryScope use(registry);
  std::vector<std::string> stale{phase};
  bool after = false;
  for (const char* name : kPipeline) {
    if (after) stale.emplace_back(name);
    if (phase == name) after = true;
  }
  ckpt_->invalidate(stale);
  std::optional<std::string> events;
  if (const auto it = phase_events_.find(phase); it != phase_events_.end()) {
    events = obs::events_to_jsonl(it->second);
  }
  ckpt_->record_phase(phase, phase + ".json", phase_artifact(phase),
                      timings_.ms[phase], events);
}

// A cancelled, deadline-expired, or otherwise-thrown-out-of phase leaves
// its black box behind: every event the recorder still holds (the
// interrupted phase's partial slice plus bookkeeping stragglers) goes to
// flight.jsonl, and a partial run report — what completed, what was
// restored, where it stopped — next to it. Both sit in the checkpoint
// directory so the post-mortem and the resume start from the same place.
void Workflow::dump_flight_tail(const std::string& phase) noexcept {
  if (ckpt_ == nullptr) return;
  try {
    obs::Registry& registry = telemetry();
    const std::vector<obs::RecorderEvent> tail = registry.recorder().drain();
    write_file_atomic(ckpt_->dir() + "/flight.jsonl", obs::events_to_jsonl(tail));
    std::ostringstream report;
    report << "{\n  \"interrupted_phase\": \"" << phase << "\",\n";
    report << "  \"status\": \"interrupted\",\n";
    report << "  \"input_hash\": \"" << input_hash_ << "\",\n";
    report << "  \"options_signature\": \"" << options_signature() << "\",\n";
    report << "  \"restored\": [";
    for (std::size_t i = 0; i < restored_.size(); ++i) {
      report << (i > 0 ? ", " : "") << "\"" << restored_[i] << "\"";
    }
    report << "],\n  \"completed_phases\": [";
    bool first = true;
    for (const char* name : kPipeline) {
      const auto it = timings_.ms.find(name);
      if (it == timings_.ms.end()) continue;
      if (!first) report << ", ";
      first = false;
      report << "\"" << name << "\"";
    }
    report << "],\n  \"tail_events\": " << tail.size() << "\n}\n";
    write_file_atomic(ckpt_->dir() + "/run_report.partial.json", report.str());
  } catch (...) {
    // Post-mortem artifacts are best-effort; the interruption itself is
    // what must propagate.
  }
}

std::string Workflow::phase_artifact(const std::string& phase) const {
  if (phase == "load" || phase == "design") {
    return anm_to_value(anm_).to_json(true);
  }
  if (phase == "compile") return nidb_->to_json(true);
  if (phase == "render") {
    nidb::Object files;
    for (const auto& [path, content] : *configs_) files[path] = content;
    return nidb::Value(std::move(files)).to_json(true);
  }
  if (phase == "lint") return lint_report_->to_json(true);
  if (phase == "deploy") return deploy_result_to_value(deploy_result_).to_json(true);
  if (phase == "measure") {
    nidb::Object out;
    out["ok"] = measure_report_->ok;
    out["missing"] = string_list_to_value(measure_report_->missing);
    out["unexpected"] = string_list_to_value(measure_report_->unexpected);
    out["probes"] = static_cast<std::int64_t>(measure_probes_);
    out["reachable"] = static_cast<std::int64_t>(measure_reachable_);
    return nidb::Value(std::move(out)).to_json(true);
  }
  throw CheckpointError("unknown workflow phase '" + phase + "'");
}

void Workflow::restore_phase_state(const std::string& phase,
                                   const std::string& artifact) {
  if (phase == "load" || phase == "design") {
    anm_ = anm_from_artifact(artifact);
    loaded_ = true;
    return;
  }
  if (phase == "compile") {
    nidb_ = nidb::Nidb::from_json(artifact);
    return;
  }
  if (phase == "render") {
    configs_ = configs_from_artifact(artifact);
    return;
  }
  if (phase == "lint") {
    lint_report_ = lint_report_from_json(artifact);
    return;
  }
  if (phase == "deploy") {
    deploy_result_ = deploy_result_from_value(nidb::parse_json(artifact));
    rehydrate_network();
    return;
  }
  if (phase == "measure") {
    const nidb::Value doc = nidb::parse_json(artifact);
    measure::ValidationReport report;
    if (const auto* f = doc.find("ok")) report.ok = f->as_bool().value_or(true);
    report.missing = string_list_from_value(doc.find("missing"));
    report.unexpected = string_list_from_value(doc.find("unexpected"));
    measure_report_ = std::move(report);
    measure_probes_ = 0;
    measure_reachable_ = 0;
    if (const auto* f = doc.find("probes")) {
      measure_probes_ = static_cast<std::uint64_t>(f->as_int().value_or(0));
    }
    if (const auto* f = doc.find("reachable")) {
      measure_reachable_ = static_cast<std::uint64_t>(f->as_int().value_or(0));
    }
    // Replay the phase's counter contributions so a resumed run's
    // registry export matches the uninterrupted one.
    auto scope = obs::Registry::current().scope("measure");
    scope.counter("reachability_probes").inc(measure_probes_);
    scope.counter("reachable_pairs").inc(measure_reachable_);
    return;
  }
  throw CheckpointError("unknown workflow phase '" + phase + "'");
}

// Restoring a deploy phase must leave network() usable for measure and
// probes. The deploy *decisions* (retries, casualties, degradation) come
// verbatim from the checkpoint; only the deterministic final handoff —
// extract configs, start the control plane over the booted set — is
// replayed, which also republishes the same emulation counter deltas an
// uninterrupted run records.
void Workflow::rehydrate_network() {
  host_ = std::make_unique<deploy::EmulationHost>("localhost");
  if (!deploy_result_.success) return;
  host_->receive(deploy::pack(*configs_));
  host_->extract();
  std::set<std::string> only;
  if (deploy_result_.degraded) {
    only.insert(deploy_result_.booted.begin(), deploy_result_.booted.end());
  }
  host_->start_network(*nidb_, host_->filesystem(), only, nullptr);
}

// --- Incremental reuse ------------------------------------------------------

// Satisfies one design rule from the baseline instead of re-running it:
// the rule's overlay is copied wholesale (each rule's writes land in its
// own overlay, including the overlay-local data() blocks ip and ibgp
// record), plus the phy-node annotations the rr-auto selector leaves
// behind. Returns false when the rule must run fresh.
bool Workflow::copy_design_rule(const std::string& name) {
  if (!base_.anm || !incr_.plan.rule_reused(name) || !base_.anm->has_overlay(name)) {
    return false;
  }
  if (!anm_.has_overlay(name)) anm_.add_overlay(name);
  anm_[name].unwrap() = (*base_.anm)[name].unwrap();
  if (name == "ibgp" && options_.ibgp == "rr-auto") {
    // The selector also marks phy nodes (rr, rr_cluster); carry those
    // over so the designed model matches a fresh run byte for byte.
    auto phy = anm_["phy"];
    for (const auto& base_node : (*base_.anm)["phy"].nodes()) {
      auto cur = phy.node(base_node.name());
      if (!cur) continue;
      for (const char* key : {"rr", "rr_cluster"}) {
        if (base_node.attr(key).is_set()) cur->set(key, base_node.attr(key));
      }
    }
  }
  return true;
}

// Persists this run's snapshot next to its phase checkpoints once its
// hashes exist (rule projections from design entry, device signatures
// from compile entry, the data() hash from render entry) — the data a
// later `--incremental --since <this dir>` run plans against. Rule
// projections are taken whenever a store is attached at design entry,
// and device signatures then follow at compile entry.
void Workflow::maybe_write_snapshot() {
  if (ckpt_ == nullptr || cur_snap_.rule_hashes.empty()) return;
  cur_snap_.lint_sig = lint_signature();
  cur_snap_.template_hashes =
      incremental::template_base_hashes(render::TemplateStore::builtins());
  write_file_atomic(ckpt_->dir() + "/snapshot.json", cur_snap_.to_json());
}

// --- Phases ----------------------------------------------------------------

Workflow& Workflow::load(const graph::Graph& input) {
  choose_reuse(input);
  if (try_restore("load")) return *this;
  begin_phase("load");
  timed("load", [this, &input]() {
    auto g_in = anm_["input"];
    // Copy the raw input graph into the 'input' overlay, every attribute
    // retained.
    for (graph::NodeId n : input.nodes()) {
      auto node = g_in.add_node(input.node_name(n));
      for (const auto& [key, value] : input.node_attrs(n)) node.set(key, value);
      // Apply paper defaults: device_type=router, platform, syntax.
      if (!node.attr("device_type").is_set()) node.set("device_type", "router");
    }
    for (graph::EdgeId e : input.edges()) {
      auto edge = g_in.add_edge(input.node_name(input.edge_src(e)),
                                input.node_name(input.edge_dst(e)));
      for (const auto& [key, value] : input.edge_attrs(e)) edge.set(key, value);
    }
    design::build_phy(anm_);
    loaded_ = true;
  });
  save_phase("load");
  return *this;
}

Workflow& Workflow::design() {
  if (!loaded_) throw std::logic_error("Workflow::design before load");
  // Rule projections hash the *post-load* model, so they must be taken
  // here — a checkpoint restore replaces anm_ with the designed state.
  // Consumers: the partial-mode design plan, and snapshot.json (own
  // store only) — a warm run without a checkpoint needs neither.
  if (ckpt_ != nullptr || reuse_ == ReuseMode::kPartial) {
    cur_snap_.rule_hashes = incremental::rule_projections(anm_, design_spec());
  }
  if (base_.anm) {
    incr_.delta = incremental::diff_graphs((*base_.anm)["input"].unwrap(),
                                           anm_["input"].unwrap());
    incremental::plan_design(base_.snap, cur_snap_.rule_hashes,
                             design_spec().rule_order(), incr_.plan);
  }
  if (try_restore("design")) return *this;
  begin_phase("design");
  timed("design", [this]() {
    // One child span per design rule: the per-rule breakdown the §3.2
    // phase timings could not see. Each rule is a cancellation point. A
    // rule the recompute plan marks clean copies its baseline overlay
    // instead of running, under the same span/record telemetry — the
    // design artifact and report timeline stay byte-identical.
    auto rule = [this](const char* name, auto&& f) {
      core::checkpoint(control_, std::string("design.") + name);
      obs::Span span(std::string("design.") + name);
      if (!copy_design_rule(name)) f();
      obs::record("design", "rule", {{"rule", name}});
    };
    rule("ospf", [this] { design::build_ospf(anm_, options_.ospf); });
    if (options_.enable_isis) rule("isis", [this] { design::build_isis(anm_); });
    rule("ebgp", [this] { design::build_ebgp(anm_); });
    rule("ibgp", [this] {
      if (options_.ibgp == "mesh") {
        design::build_ibgp_full_mesh(anm_);
      } else if (options_.ibgp == "rr") {
        design::build_ibgp_route_reflectors(anm_);
      } else if (options_.ibgp == "rr-auto") {
        design::select_route_reflectors(anm_, options_.rr_select);
        design::build_ibgp_route_reflectors(anm_);
      } else {
        throw std::invalid_argument("unknown ibgp mode '" + options_.ibgp + "'");
      }
    });
    rule("ip", [this] { design::build_ip(anm_, options_.ip); });
    if (options_.enable_dns) rule("dns", [this] { design::build_dns(anm_); });
    if (options_.enable_rpki) rule("rpki", [this] { design::build_rpki(anm_); });
  });
  save_phase("design");
  return *this;
}

Workflow& Workflow::compile() {
  if (!anm_.has_overlay("ip")) throw std::logic_error("Workflow::compile before design");
  // Device signatures read the fully designed model — available here
  // whether design() ran fresh or restored. Same consumers as the rule
  // projections: the device plan and snapshot.json.
  const bool partial = reuse_ == ReuseMode::kPartial;
  if ((ckpt_ != nullptr || partial) && cur_snap_.device_sigs.empty()) {
    incremental::DeviceSignatures sigs =
        incremental::device_signatures(anm_, options_.platform);
    cur_snap_.global_digest = sigs.global_digest;
    cur_snap_.device_sigs = sigs.sigs;
    if (partial) {
      incremental::plan_devices(base_.snap, sigs, incr_.plan);
      // Published outside any phase: visible in the registry export but
      // never in the (byte-compared) run report timeline.
      obs::Registry& registry = telemetry();
      obs::RegistryScope use(registry);
      auto scope = registry.scope("delta");
      scope.counter("dirty_devices").inc(incr_.plan.dirty_devices.size());
      scope.counter("reused").inc(incr_.plan.reused_devices.size());
    }
  }
  if (try_restore("compile")) return *this;
  begin_phase("compile");
  timed("compile", [this]() {
    const auto& pc = compiler::platform_compiler_for(options_.platform);
    if (base_.nidb && !incr_.plan.reused_devices.empty()) {
      compiler::CompileReuse reuse;
      reuse.baseline = &*base_.nidb;
      reuse.devices = &incr_.plan.reused_devices;
      reuse.reused_out = &incr_.devices_reused_compile;
      nidb_ = pc.compile(anm_, {}, &reuse);
    } else {
      nidb_ = pc.compile(anm_);
    }
  });
  save_phase("compile");
  return *this;
}

Workflow& Workflow::render() {
  if (!nidb_) throw std::logic_error("Workflow::render before compile");
  // The data()-section hash drives render reuse in partial mode and is
  // persisted in snapshot.json for the next run's.
  if (ckpt_ != nullptr || reuse_ == ReuseMode::kPartial) {
    cur_snap_.data_hash = fnv1a(nidb_->data().to_json(false));
  }
  if (try_restore("render")) {
    maybe_write_snapshot();
    return *this;
  }
  begin_phase("render");
  timed("render", [this]() {
    if (base_.configs && !incr_.plan.reused_devices.empty()) {
      render::RenderReuse reuse;
      reuse.baseline = &*base_.configs;
      reuse.devices = &incr_.plan.reused_devices;
      reuse.data_changed = base_.snap.data_hash != cur_snap_.data_hash;
      reuse.reused_out = &incr_.devices_reused_render;
      configs_ = render::render_configs(*nidb_, render::TemplateStore::builtins(),
                                        control_, &reuse);
    } else {
      configs_ = render::render_configs(*nidb_, render::TemplateStore::builtins(),
                                        control_);
    }
  });
  save_phase("render");
  maybe_write_snapshot();
  return *this;
}

Workflow& Workflow::lint() {
  if (!nidb_) throw std::logic_error("Workflow::lint before compile");
  if (reuse_ == ReuseMode::kPartial && !incr_planned_lint_) {
    incr_planned_lint_ = true;
    incremental::plan_lint(
        base_.snap, lint_signature(),
        incremental::template_base_hashes(render::TemplateStore::builtins()),
        incr_.plan);
  }
  if (!try_restore("lint")) {
    begin_phase("lint");
    timed("lint", [this]() {
      verify::LintInput input;
      input.nidb = &*nidb_;
      input.templates = &render::TemplateStore::builtins();
      const verify::RuleRegistry& registry =
          options_.lint.analysis ? verify::RuleRegistry::with_analysis()
                                 : verify::RuleRegistry::builtin();
      if (incr_.plan.lint_reusable && base_.lint) {
        verify::LintReuse reuse;
        reuse.baseline = &*base_.lint;
        reuse.reused_out = &incr_.lint_rules_reused;
        lint_report_ = verify::run_lint(input, options_.lint.options, registry,
                                        control_, &reuse);
      } else {
        lint_report_ =
            verify::run_lint(input, options_.lint.options, registry, control_);
      }
    });
    save_phase("lint");
  }
  // The gate re-fires on restore too: resuming a workflow whose lint
  // failed the threshold behaves exactly like re-running it.
  if (options_.lint.fail_fast && options_.lint.options.should_fail(*lint_report_)) {
    throw LintError("lint gate: refusing to deploy\n" + lint_report_->to_string(),
                    *lint_report_);
  }
  return *this;
}

Workflow& Workflow::deploy() {
  if (!configs_) throw std::logic_error("Workflow::deploy before render");
  if (try_restore("deploy")) return *this;
  // Hot-apply: when every input change maps to a scoped action (link
  // cost, link failure), boot the *baseline* emulation and mutate it in
  // place instead of deploying the re-rendered configs from scratch.
  // Routers keep their identity and sessions; one reconvergence pass
  // settles the applied actions. Excluded from the byte-equivalence
  // contract — its deploy artifact is a synthesis, validated by the
  // FIB-equivalence tests instead.
  if (hot_apply_ && base_.nidb && base_.configs && !incr_.delta.empty()) {
    const incremental::HotApplyPlan hplan =
        incremental::plan_hot_apply(incr_.delta, options_.ospf.cost_attr);
    if (hplan.applicable()) {
      begin_phase("deploy");
      timed("deploy", [this, &hplan]() {
        host_ = std::make_unique<deploy::EmulationHost>("localhost");
        host_->receive(deploy::pack(*base_.configs));
        host_->extract();
        host_->start_network(*base_.nidb, host_->filesystem(), {}, nullptr);
        const incremental::HotApplyResult result =
            incremental::hot_apply(*host_->network(), hplan, 128, control_);
        deploy_result_ = {};
        deploy_result_.success =
            result.failed == 0 && result.convergence.converged;
        for (const auto* rec : base_.nidb->devices()) {
          deploy_result_.booted.push_back(rec->name);
        }
        deploy_result_.convergence = result.convergence;
        incr_.hot_applied = true;
      });
      save_phase("deploy");
      return *this;
    }
    incr_.plan.explain.push_back("hot-apply not applicable: full deploy");
    for (const std::string& reason : hplan.unsupported) {
      incr_.plan.explain.push_back("  " + reason);
    }
  }
  begin_phase("deploy");
  timed("deploy", [this]() {
    host_ = std::make_unique<deploy::EmulationHost>("localhost");
    host_->attach_faults(faults_);
    deploy::Deployer deployer(*host_);
    deploy::DeployOptions opts = options_.deploy;
    if (opts.control == nullptr) opts.control = control_;
    deploy_result_ = deployer.deploy(*configs_, *nidb_, opts);
  });
  save_phase("deploy");
  return *this;
}

Workflow& Workflow::measure() {
  if (!host_ || host_->network() == nullptr) {
    throw std::logic_error("Workflow::measure before a successful deploy");
  }
  if (try_restore("measure")) return *this;
  begin_phase("measure");
  timed("measure", [this]() {
    {
      core::checkpoint(control_, "measure.validate_ospf");
      obs::Span span("measure.validate_ospf");
      measure_report_ = measure::validate_ospf(*host_->network(), anm_);
    }
    core::checkpoint(control_, "measure.reachability");
    obs::Span span("measure.reachability");
    auto matrix = measurement().reachability();
    auto scope = obs::Registry::current().scope("measure");
    measure_probes_ = matrix.routers.size() * (matrix.routers.size() - 1);
    measure_reachable_ = matrix.reachable_pairs();
    scope.counter("reachability_probes").inc(measure_probes_);
    scope.counter("reachable_pairs").inc(measure_reachable_);
    obs::record("measure",
                measure_reachable_ == measure_probes_ ? obs::Severity::kInfo
                                                      : obs::Severity::kWarning,
                "reachability",
                {{"probes", std::to_string(measure_probes_)},
                 {"reachable", std::to_string(measure_reachable_)}});
  });
  save_phase("measure");
  return *this;
}

Workflow& Workflow::run(const graph::Graph& input) {
  load(input).design().compile().render();
  if (options_.lint.enabled) lint();
  return deploy();
}

const nidb::Nidb& Workflow::nidb() const {
  if (!nidb_) throw std::logic_error("compile() has not run");
  return *nidb_;
}

const render::ConfigTree& Workflow::configs() const {
  if (!configs_) throw std::logic_error("render() has not run");
  return *configs_;
}

emulation::EmulatedNetwork& Workflow::network() {
  if (!host_ || host_->network() == nullptr) {
    throw std::logic_error("deploy() has not run successfully");
  }
  return *host_->network();
}

const deploy::DeployResult& Workflow::deploy_result() const { return deploy_result_; }

measure::MeasurementClient Workflow::measurement() const {
  if (!host_ || host_->network() == nullptr || !nidb_) {
    throw std::logic_error("deploy() has not run successfully");
  }
  return measure::MeasurementClient(*host_->network(), *nidb_);
}

const verify::Report& Workflow::lint_report() const {
  if (!lint_report_) throw std::logic_error("lint() has not run");
  return *lint_report_;
}

measure::ValidationReport Workflow::validate_ospf() const {
  if (!host_ || host_->network() == nullptr) {
    throw std::logic_error("deploy() has not run successfully");
  }
  return measure::validate_ospf(*host_->network(), anm_);
}

const measure::ValidationReport& Workflow::measure_report() const {
  if (!measure_report_) throw std::logic_error("measure() has not run");
  return *measure_report_;
}

}  // namespace autonet::core
