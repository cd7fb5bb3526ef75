#include "core/workflow.hpp"

#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/hash.hpp"
#include "deploy/archive.hpp"
#include "nidb/value.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"

namespace autonet::core {

namespace {

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
// input delta. The NIDB decodes with Nidb::from_json, the render record
// (a deploy archive) with deploy::unpack.

anm::AbstractNetworkModel anm_from_artifact(const std::string& artifact) {
  anm::AbstractNetworkModel anm;
  anm_from_value(nidb::parse_json(artifact), anm);
  return anm;
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
  return out.str();
}

double PhaseTimings::total() const {
  double sum = 0;
  for (const auto& [phase, value] : ms) sum += value;
  return sum;
}

std::string PhaseTimings::to_string() const {
  std::ostringstream out;
  for (const char* phase : kPipeline) {
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
// recorder tail is dumped next to the checkpoint before rethrowing; the
// phase-boundary poll sits inside that scope, so an interrupt landing
// on the boundary leaves its post-mortem too.
template <typename F>
void Workflow::timed(const std::string& phase, F&& f) {
  // Any fresh execution invalidates downstream checkpoints — they derive
  // from state this phase is about to recompute.
  fresh_executed_ = true;
  obs::Registry& registry = telemetry();
  obs::RegistryScope use(registry);
  obs::PhaseScope phase_scope(phase);
  obs::Span span(registry, phase);
  try {
    core::checkpoint(control_, "phase." + phase);
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

// The one restore rule, for the own checkpoint and the baseline alike.
// Stores recorded before the signature split carry no "options_build"
// meta and match on the full signature only, which is strictly more
// conservative.
bool Workflow::options_matches(const CheckpointStore& store,
                               std::string_view phase) const {
  if (store.meta("options") == options_signature()) return true;
  const std::string build = store.meta("options_build");
  return phase != "deploy" && phase != "measure" && !build.empty() &&
         build == build_signature();
}

bool Workflow::supplies(const CheckpointStore& store, std::string_view phase) const {
  return store.meta("input_hash") == input_hash_ && options_matches(store, phase);
}

// The own checkpoint first drops every record the rule rejects (all of
// them for another input or build, deploy and measure for other deploy
// options) and then records this run's meta, so it never holds a record
// its meta does not vouch for. The baseline is only read: its mode names
// which phases it supplies.
void Workflow::choose_reuse(const graph::Graph& input) {
  // The input signature is kept even without a store: run reports embed
  // it so two reports are comparable without the checkpoint directory.
  input_hash_ = std::to_string(fnv1a(graph_to_json(input)));
  if (ckpt_ != nullptr) {
    std::vector<std::string> rejected;
    for (const std::string& phase : ckpt_->phases()) {
      if (!supplies(*ckpt_, phase)) rejected.push_back(phase);
    }
    ckpt_->invalidate(rejected);
    ckpt_->set_meta({{"input_hash", input_hash_},
                     {"options", options_signature()},
                     {"options_build", build_signature()}});
  }
  if (baseline_ == nullptr) return;
  if (supplies(*baseline_, "deploy")) {
    reuse_ = ReuseMode::kWarm;
    incr_.plan.explain.emplace_back(
        "input unchanged: every phase restores from the baseline");
  } else if (supplies(*baseline_, "load")) {
    reuse_ = ReuseMode::kPartial;
    incr_.plan.explain.emplace_back(
        "input unchanged, deploy options differ: load..lint restore, "
        "deploy runs fresh");
  } else if (options_matches(*baseline_, "load")) {
    reuse_ = ReuseMode::kEdited;
    incr_.plan.explain.emplace_back("input changed: full recompute");
  } else {
    incr_.plan.explain.emplace_back(
        "baseline options differ (or baseline is empty): full recompute");
  }
  static constexpr const char* kModeNames[] = {"cold", "warm", "partial", "cold"};
  incr_.mode = kModeNames[static_cast<int>(reuse_)];
}

bool Workflow::try_restore(const std::string& phase) {
  if (fresh_executed_) return false;
  // Own checkpoint first (resume), then the baseline.
  CheckpointStore* src = nullptr;
  std::string artifact;
  for (CheckpointStore* store : {ckpt_.get(), baseline_.get()}) {
    if (store == nullptr || !supplies(*store, phase)) continue;
    if (std::optional<std::string> content = store->read_artifact(phase)) {
      src = store;
      artifact = std::move(*content);
      break;
    }
  }
  if (src == nullptr) return false;
  obs::Registry& registry = telemetry();
  obs::RegistryScope use(registry);
  try {
    restore_phase_state(phase, artifact);
    // Replay the phase's persisted flight-recorder slice so the run
    // report's timeline is byte-identical to an uninterrupted run's. A
    // record without an intact slice (pre-recorder checkpoint) restores
    // with an empty one.
    const std::optional<std::string> events = src->read_events(phase);
    phase_events_[phase] =
        events ? events_from_jsonl(*events) : std::vector<obs::RecorderEvent>{};
  } catch (const std::exception&) {
    // A corrupt or stale artifact is not fatal: execute the phase fresh
    // (which re-records it and invalidates anything downstream). A
    // render record that is not a deploy archive (an older store's JSON
    // object of files) lands here with deploy::ArchiveError.
    phase_events_.erase(phase);
    return false;
  }
  timings_.ms[phase] = src->phase_ms(phase);
  restored_.push_back(phase);
  if (restored_from_.empty() || restored_from_.back() != src->dir()) {
    restored_from_.push_back(src->dir());
  }
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
  if (fresh_executed_) {
    // A phase recorded fresh moves the run past the interruption any
    // post-mortem in the directory describes.
    std::error_code ec;
    std::filesystem::remove(ckpt_->dir() + "/flight.jsonl", ec);
    std::filesystem::remove(ckpt_->dir() + "/run_report.partial.json", ec);
  }
  std::optional<std::string> events;
  if (const auto it = phase_events_.find(phase); it != phase_events_.end()) {
    events = obs::events_to_jsonl(it->second);
  }
  // The render record is the deploy archive of the configuration tree;
  // every other record is compact JSON.
  ckpt_->record_phase(phase, phase == "render" ? "render.archive" : phase + ".json",
                      phase_artifact(phase), timings_.ms[phase], events);
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
  if (phase == "load" || phase == "design") return anm_to_json(anm_);
  if (phase == "compile") return nidb_->to_json(false);
  if (phase == "render") return deploy::pack(*configs_);
  if (phase == "lint") return lint_report_->to_json(false);
  if (phase == "deploy") return deploy_result_to_value(deploy_result_).to_json(false);
  if (phase == "measure") {
    nidb::Object out;
    out["ok"] = measure_report_->ok;
    out["missing"] = string_list_to_value(measure_report_->missing);
    out["unexpected"] = string_list_to_value(measure_report_->unexpected);
    out["probes"] = static_cast<std::int64_t>(measure_probes_);
    out["reachable"] = static_cast<std::int64_t>(measure_reachable_);
    return nidb::Value(std::move(out)).to_json(false);
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
    configs_ = deploy::unpack(artifact);
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
// start the control plane over the booted set — is replayed, which also
// republishes the same emulation counter deltas an uninterrupted run
// records.
void Workflow::rehydrate_network() {
  network_.reset();
  if (!deploy_result_.success) return;
  const bool degraded = deploy_result_.degraded;
  const std::set<std::string> booted =
      degraded ? std::set<std::string>(deploy_result_.booted.begin(),
                                       deploy_result_.booted.end())
               : std::set<std::string>();
  network_ = deploy::start_network(*nidb_, *configs_, degraded ? &booted : nullptr,
                                   nullptr);
}

// --- Phases ----------------------------------------------------------------

Workflow& Workflow::load(const graph::Graph& input) {
  choose_reuse(input);
  if (try_restore("load")) return *this;
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
  if (reuse_ == ReuseMode::kEdited) {
    // The delta reads the baseline's input overlay from its load record,
    // the cheapest artifact that holds it.
    try {
      anm::AbstractNetworkModel base = anm_from_artifact(baseline_->artifact("load"));
      incr_.delta =
          incremental::diff_graphs(base["input"].unwrap(), anm_["input"].unwrap());
    } catch (const std::exception&) {
      incr_.plan.explain.emplace_back("baseline load record unreadable: no input delta");
    }
  }
  if (try_restore("design")) return *this;
  timed("design", [this]() {
    // One child span per design rule: the per-rule breakdown the §3.2
    // phase timings could not see. Each rule is a cancellation point.
    auto rule = [this](const char* name, auto&& f) {
      core::checkpoint(control_, std::string("design.") + name);
      obs::Span span(std::string("design.") + name);
      f();
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
  const bool restored = try_restore("compile");
  if (!restored) {
    timed("compile", [this]() {
      nidb_ = compiler::platform_compiler_for(options_.platform).compile(anm_);
    });
    save_phase("compile");
  }
  // Whole-phase device tallies against a build-matching baseline: a
  // restored compile reused every device, a fresh one rebuilt them all.
  if (reuse_ == ReuseMode::kPartial || reuse_ == ReuseMode::kEdited) {
    auto& tally = restored ? incr_.plan.reused_devices : incr_.plan.dirty_devices;
    for (const auto* rec : nidb_->devices()) tally.insert(rec->name);
  }
  return *this;
}

Workflow& Workflow::render() {
  if (!nidb_) throw std::logic_error("Workflow::render before compile");
  if (try_restore("render")) return *this;
  timed("render", [this]() {
    configs_ =
        render::render_configs(*nidb_, render::TemplateStore::builtins(), control_);
  });
  save_phase("render");
  return *this;
}

Workflow& Workflow::lint() {
  if (!nidb_) throw std::logic_error("Workflow::lint before compile");
  if (!try_restore("lint")) {
    timed("lint", [this]() {
      verify::LintInput input;
      input.nidb = &*nidb_;
      input.templates = &render::TemplateStore::builtins();
      const verify::RuleRegistry& registry =
          options_.lint.analysis ? verify::RuleRegistry::with_analysis()
                                 : verify::RuleRegistry::builtin();
      lint_report_ =
          verify::run_lint(input, options_.lint.options, registry, control_);
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
  timed("deploy", [this]() {
    network_.reset();
    deploy::EmulationHost host("localhost");
    host.attach_faults(faults_);
    deploy::Deployer deployer({&host});
    deploy::DeployOptions opts = options_.deploy;
    if (opts.control == nullptr) opts.control = control_;
    deploy_result_ = deployer.deploy(*configs_, *nidb_, opts);
    network_ = deployer.take_network();
  });
  save_phase("deploy");
  return *this;
}

Workflow& Workflow::measure() {
  if (!network_) {
    throw std::logic_error("Workflow::measure before a successful deploy");
  }
  if (try_restore("measure")) return *this;
  timed("measure", [this]() {
    {
      core::checkpoint(control_, "measure.validate_ospf");
      obs::Span span("measure.validate_ospf");
      measure_report_ = measure::validate_ospf(*network_, anm_);
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
  if (!network_) throw std::logic_error("deploy() has not run successfully");
  return *network_;
}

const deploy::DeployResult& Workflow::deploy_result() const { return deploy_result_; }

measure::MeasurementClient Workflow::measurement() const {
  if (!network_ || !nidb_) {
    throw std::logic_error("deploy() has not run successfully");
  }
  return measure::MeasurementClient(*network_, *nidb_);
}

const verify::Report& Workflow::lint_report() const {
  if (!lint_report_) throw std::logic_error("lint() has not run");
  return *lint_report_;
}

measure::ValidationReport Workflow::validate_ospf() const {
  if (!network_) throw std::logic_error("deploy() has not run successfully");
  return measure::validate_ospf(*network_, anm_);
}

const measure::ValidationReport& Workflow::measure_report() const {
  if (!measure_report_) throw std::logic_error("measure() has not run");
  return *measure_report_;
}

}  // namespace autonet::core
