// The Workflow façade: the paper's Figure-2 pipeline as one API.
//   input topology -> network design -> compile -> render -> deploy ->
//   measure (with visualization export at any stage)
// Each phase is timed, reproducing the §3.2 measurement methodology
// ("15 seconds to load and build network topologies, 27 seconds to
// compile the network model, and 2 minutes to render").
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "anm/anm.hpp"
#include "compiler/platform_compiler.hpp"
#include "core/cancel.hpp"
#include "core/checkpoint.hpp"
#include "core/error.hpp"
#include "deploy/deployer.hpp"
#include "deploy/faults.hpp"
#include "design/bgp.hpp"
#include "design/igp.hpp"
#include "design/ip_allocation.hpp"
#include "design/services.hpp"
#include "incremental/delta.hpp"
#include "measure/client.hpp"
#include "measure/validate.hpp"
#include "nidb/nidb.hpp"
#include "obs/registry.hpp"
#include "render/renderer.hpp"
#include "verify/rules.hpp"

namespace autonet::core {

/// The pre-deployment lint gate: run() executes the static analyser
/// between render and deploy, and with fail_fast refuses to deploy a
/// network whose report crosses the failure threshold.
struct LintGate {
  bool enabled = true;
  /// Throw LintError from lint()/run() when options.should_fail(report);
  /// when false the report is recorded (see lint_report()) but the
  /// pipeline continues.
  bool fail_fast = true;
  /// Opt-in: also run the semantic "analysis" rule family (predicted
  /// FIBs, reachability/loop/blackhole, k=1 what-if) in the gate, i.e.
  /// use RuleRegistry::with_analysis() instead of builtin().
  bool analysis = false;
  /// Per-rule enable/disable, severity overrides and the threshold.
  verify::LintOptions options;
};

struct WorkflowOptions {
  std::string platform = "netkit";
  /// iBGP mode: "mesh", "rr" (attribute-based), or "rr-auto"
  /// (centrality-selected reflectors, §7.1).
  std::string ibgp = "mesh";
  bool enable_isis = false;
  bool enable_dns = false;
  bool enable_rpki = false;
  design::IpOptions ip;
  design::OspfOptions ospf;
  design::RrSelectOptions rr_select;
  /// Deployment behaviour (retries, backoff, graceful degradation).
  deploy::DeployOptions deploy;
  LintGate lint;
};

/// Thrown by the lint gate (fail-fast mode) when static analysis finds
/// violations past the configured threshold; carries the full report.
class LintError : public std::runtime_error {
 public:
  LintError(const std::string& what, verify::Report report)
      : std::runtime_error(what), report_(std::move(report)) {}
  [[nodiscard]] const verify::Report& report() const { return report_; }

 private:
  verify::Report report_;
};

/// What an incremental run did: its mode, the input delta against the
/// baseline, and the whole-phase device tallies. mode is "warm" (input
/// and options unchanged: every phase restores), "partial" (same input,
/// other deploy options: load..lint restore, deploy and measure run
/// fresh), or "cold" (nothing restores from the baseline).
struct IncrementalReport {
  bool enabled = false;
  std::string mode = "cold";
  /// The input's changes against the baseline's load record, set at
  /// design() when the baseline recorded another input under the same
  /// build options.
  incremental::DeltaSet delta;
  struct Plan {
    /// Every device when the build phases restored (partial mode).
    std::set<std::string> reused_devices;
    /// Every device when an edited input rebuilt against a
    /// build-matching baseline. Both sets stay empty otherwise.
    std::set<std::string> dirty_devices;
    /// One line per decision, for `autonet run --explain`.
    std::vector<std::string> explain;
  } plan;

  /// The --explain rendering: mode, delta, then the decision lines.
  [[nodiscard]] std::string to_text() const;
};

/// The pipeline's phases in execution order: checkpoints restore in it,
/// and timings, run reports and post-mortems list phases in it.
inline constexpr const char* kPipeline[] = {"load", "design", "compile", "render",
                                            "lint", "deploy", "measure"};

struct PhaseTimings {
  /// Milliseconds per phase, keyed "load", "design", "compile", "render",
  /// "lint", "deploy", "measure". Values are derived from the obs phase spans
  /// (each entry is the duration of the span of the same name).
  std::map<std::string, double> ms;
  [[nodiscard]] double total() const;
  [[nodiscard]] std::string to_string() const;
};

/// Drives the full pipeline over an input topology graph. The individual
/// modules remain directly usable; Workflow wires the default
/// composition used by the examples and benchmarks.
class Workflow {
 public:
  explicit Workflow(WorkflowOptions options = {});
  ~Workflow();
  Workflow(Workflow&&) noexcept;
  Workflow& operator=(Workflow&&) noexcept;

  /// Phase 1: loads the input graph into the ANM ('input' + 'phy').
  Workflow& load(const graph::Graph& input);
  /// Phase 2: runs the design rules (OSPF, eBGP, iBGP, IP, services).
  Workflow& design();
  /// Phase 3: platform compilation into the Resource Database.
  Workflow& compile();
  /// Phase 4: template rendering into the configuration tree.
  Workflow& render();
  /// Phase 4.5: the static-analysis gate — lints the compiled NIDB and
  /// the builtin template sets. Respects options.lint: skipped when
  /// disabled, throws LintError past the threshold with fail_fast.
  Workflow& lint();
  /// Phase 5: archive/transfer/extract/boot through deploy::Deployer
  /// onto one simulated host named "localhost"; the workflow keeps the
  /// started network.
  Workflow& deploy();
  /// Phase 6: post-deployment measurement — design-vs-running OSPF
  /// validation plus the loopback reachability matrix, timed like every
  /// other phase (the paper's §3.2 numbers previously left it untimed).
  Workflow& measure();

  /// All phases in order. Deployment faults do not throw: inspect ok(),
  /// errors(), and deploy_result() afterwards — a degraded deploy still
  /// leaves a (partial) network() to measure.
  Workflow& run(const graph::Graph& input);

  /// Attaches a fault-injection plan consulted by the emulation host
  /// during deploy(); pass nullptr to detach.
  Workflow& use_faults(deploy::FaultPlan* plan) {
    faults_ = plan;
    return *this;
  }

  /// Records telemetry (phase spans, per-rule/per-device spans, counters)
  /// into `registry` instead of obs::Registry::global(); pass nullptr to
  /// revert. Used by tests to golden-compare isolated exports.
  Workflow& use_telemetry(obs::Registry* registry) {
    obs_ = registry;
    return *this;
  }
  /// The registry this workflow records into.
  [[nodiscard]] obs::Registry& telemetry() const {
    return obs_ != nullptr ? *obs_ : obs::Registry::global();
  }

  /// Attaches run supervision (cooperative cancellation + a virtual-time
  /// deadline): every phase and sub-phase boundary polls it, so a cancel
  /// or an expired deadline interrupts the pipeline within one unit of
  /// work (one design rule, one rendered device, one lint rule, one BGP
  /// round, one deploy attempt) while completed phases' results — and
  /// their checkpoints — stay intact. Non-owning; pass nullptr to detach.
  Workflow& use_control(core::RunControl* control) {
    control_ = control;
    return *this;
  }
  [[nodiscard]] core::RunControl* control() const { return control_; }

  /// Enables crash-consistent checkpointing into `dir`: each phase's
  /// state is snapshotted (write-temp + fsync + rename) as it completes,
  /// and phases already recorded there — by a previous, possibly killed
  /// or cancelled, run over the same input and the options the phase
  /// depends on — are restored instead of re-executed. A restored
  /// prefix plus a freshly executed suffix yields results byte-identical
  /// to an uninterrupted run (the emulated network is rehydrated by
  /// replaying its deterministic start). Obs counters: "ckpt.write" per
  /// snapshot, "ckpt.phase_restored" per phase skipped, "ckpt.resume"
  /// once per workflow that restored anything.
  Workflow& checkpoint_to(const std::string& dir);
  /// The attached store; nullptr when checkpointing is off.
  [[nodiscard]] CheckpointStore* checkpoint_store() { return ckpt_.get(); }
  /// Phases satisfied from the checkpoint by this run, pipeline order.
  [[nodiscard]] const std::vector<std::string>& restored_phases() const {
    return restored_;
  }
  /// The directories restored_phases() came from, in restore order: the
  /// own checkpoint's, then the incremental_from() baseline's.
  [[nodiscard]] const std::vector<std::string>& restored_from() const {
    return restored_from_;
  }

  // --- Incremental pipeline ---------------------------------------------
  /// Chains this run off a previous run's checkpoint directory, which
  /// supplies whole phases under the same rule as the own checkpoint:
  /// every phase when the input and options match ("warm"), load..lint
  /// when only the deploy options differ ("partial"). An edited input
  /// runs cold; against a baseline with the same build options it
  /// reports the input delta. Obs counter: "incr.phase_reused".
  Workflow& incremental_from(const std::string& baseline_dir);
  /// What the incremental machinery decided and did this run.
  [[nodiscard]] const IncrementalReport& incremental_report() const {
    return incr_;
  }
  /// True once compile() has produced (or restored) the NIDB.
  [[nodiscard]] bool has_nidb() const { return nidb_.has_value(); }

  // --- Flight-recorder / run-report surface -----------------------------
  /// Per-phase flight-recorder event slices: each completed phase's
  /// events (phase-relative timestamps), drained at phase end. Restored
  /// phases carry the slice their original execution persisted, so the
  /// map — and any report built from it — is identical whether a phase
  /// ran fresh or came from a checkpoint.
  [[nodiscard]] const std::map<std::string, std::vector<obs::RecorderEvent>>&
  phase_events() const {
    return phase_events_;
  }
  /// FNV-1a hash of the serialized input graph (set by load()); the same
  /// value checkpointing stores as "input_hash".
  [[nodiscard]] const std::string& input_hash() const { return input_hash_; }
  /// Stable hash of the workflow options (platform, iBGP mode, deploy
  /// and lint settings); the same value checkpointing stores as
  /// "options".
  [[nodiscard]] std::string options_signature() const;

  // --- Results ----------------------------------------------------------
  [[nodiscard]] anm::AbstractNetworkModel& anm() { return anm_; }
  [[nodiscard]] const anm::AbstractNetworkModel& anm() const { return anm_; }
  [[nodiscard]] const nidb::Nidb& nidb() const;
  [[nodiscard]] const render::ConfigTree& configs() const;
  [[nodiscard]] emulation::EmulatedNetwork& network();
  [[nodiscard]] const deploy::DeployResult& deploy_result() const;
  /// True when deploy ran and reported no faults (full, non-degraded
  /// success).
  [[nodiscard]] bool ok() const {
    return deploy_result_.success && deploy_result_.errors.empty();
  }
  /// Typed partial-failure report from deployment (empty before deploy
  /// and on clean runs).
  [[nodiscard]] const core::ErrorList& errors() const {
    return deploy_result_.errors;
  }
  [[nodiscard]] const PhaseTimings& timings() const { return timings_; }

  /// A measurement client bound to the running network.
  [[nodiscard]] measure::MeasurementClient measurement() const;
  /// Design-vs-running validation of OSPF adjacencies.
  [[nodiscard]] measure::ValidationReport validate_ospf() const;
  /// Results of the measure() phase; throws before measure() has run.
  [[nodiscard]] const measure::ValidationReport& measure_report() const;
  /// Report recorded by the lint() phase; throws before lint() has run.
  [[nodiscard]] const verify::Report& lint_report() const;

 private:
  template <typename F>
  void timed(const std::string& phase, F&& f);

  /// What the incremental_from() baseline contributes to this run:
  /// nothing (cold), every phase (warm), or load..lint (partial).
  /// kEdited is a cold run whose baseline recorded another input under
  /// the same build options, so the input delta is reported.
  /// IncrementalReport::mode is its name.
  enum class ReuseMode { kCold, kWarm, kPartial, kEdited };

  /// The one restore rule: `store` supplies `phase` when it recorded
  /// this run's input hash and the options slice the phase depends on
  /// (options_matches).
  [[nodiscard]] bool supplies(const CheckpointStore& store,
                              std::string_view phase) const;
  /// The build slice for load..lint, the full signature for deploy and
  /// measure.
  [[nodiscard]] bool options_matches(const CheckpointStore& store,
                                     std::string_view phase) const;
  /// Taken as load() starts: drops the own checkpoint's records the
  /// rule rejects and stamps this run's meta, then names the baseline's
  /// mode.
  void choose_reuse(const graph::Graph& input);
  bool try_restore(const std::string& phase);
  /// Canonical option text hashed into the signatures; the deploy knobs
  /// are separable because they affect no phase before deploy().
  [[nodiscard]] std::string signature_text(bool include_deploy) const;
  /// Deploy-independent slice of the options signature: two runs with
  /// equal build signatures produce identical design/compile/render/lint
  /// results, even when deploy knobs (retry budgets, the per-run backoff
  /// seed campaigns inject) differ — so incremental reuse of the build
  /// phases stays sound across a campaign's per-run seeds.
  [[nodiscard]] std::string build_signature() const;
  /// Interruption path: drains the recorder's unsaved tail into
  /// flight.jsonl + run_report.partial.json next to the checkpoint
  /// (no-op without a store; never throws). save_phase() removes both
  /// once a phase is next recorded fresh.
  void dump_flight_tail(const std::string& phase) noexcept;
  void restore_phase_state(const std::string& phase, const std::string& artifact);
  void save_phase(const std::string& phase);
  [[nodiscard]] std::string phase_artifact(const std::string& phase) const;
  void rehydrate_network();

  WorkflowOptions options_;
  anm::AbstractNetworkModel anm_;
  std::optional<nidb::Nidb> nidb_;
  std::optional<render::ConfigTree> configs_;
  std::unique_ptr<emulation::EmulatedNetwork> network_;
  deploy::FaultPlan* faults_ = nullptr;
  obs::Registry* obs_ = nullptr;  // nullptr = obs::Registry::global()
  deploy::DeployResult deploy_result_;
  std::optional<verify::Report> lint_report_;
  std::optional<measure::ValidationReport> measure_report_;
  PhaseTimings timings_;
  bool loaded_ = false;

  core::RunControl* control_ = nullptr;  // non-owning supervision
  std::unique_ptr<CheckpointStore> ckpt_;
  std::vector<std::string> restored_;
  std::vector<std::string> restored_from_;
  std::map<std::string, std::vector<obs::RecorderEvent>> phase_events_;
  std::string input_hash_;
  /// Once any phase executes fresh, downstream checkpoint records are
  /// stale — restores stop and save_phase() invalidates them.
  bool fresh_executed_ = false;
  /// Measure-phase counter values, snapshotted so a restored measure
  /// phase can replay its registry contributions exactly.
  std::uint64_t measure_probes_ = 0;
  std::uint64_t measure_reachable_ = 0;

  // --- Incremental state -------------------------------------------------
  std::unique_ptr<CheckpointStore> baseline_;  // incremental_from() source
  ReuseMode reuse_ = ReuseMode::kCold;
  IncrementalReport incr_;
};

}  // namespace autonet::core
