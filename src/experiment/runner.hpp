// Executes an expanded campaign matrix on a pool of worker threads.
// Isolation is the design invariant: each run builds its own Workflow
// (own ANM/NIDB/config tree/emulation host) and records telemetry into
// its own obs::Registry driven by a VirtualClock, made current on the
// worker via obs::RegistryScope — so runs never share mutable state, and
// every per-run duration/metric is a pure function of the run's code
// path (byte-deterministic across invocations and across thread
// interleavings).
//
// The campaign itself gets a span tree in a campaign-level registry
// (expand / execute / aggregate children under "campaign.<name>"), one
// "exp" log event per completed run, and merged per-phase span
// histograms (obs::merge_histograms over the per-run registries, in
// matrix order).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "experiment/campaign.hpp"
#include "experiment/journal.hpp"
#include "obs/registry.hpp"

namespace autonet::experiment {

struct RunnerOptions {
  /// Worker threads; 0 = spec.jobs, then hardware concurrency.
  int jobs = 0;
  /// Journal path; empty = no persistence (every run executes).
  std::string journal_path;
  /// When false, previously journalled runs are re-executed.
  bool resume = true;
  /// Root for per-run checkpoint directories
  /// (<checkpoint_dir>/<sanitized-run-id>); empty = no mid-run
  /// checkpointing. With a journal, interrupted runs leave a {"ckpt":...}
  /// pointer and a later invocation resumes them at the last completed
  /// phase instead of from scratch.
  std::string checkpoint_dir;
  /// Root for per-run run_report.json files
  /// (<report_dir>/<sanitized-run-id>.report.json); empty = no reports.
  /// A run's report is byte-deterministic (same spec + seed ⇒ same
  /// bytes, resumed or not), so committed reports gate regressions via
  /// `autonet report diff`.
  std::string report_dir;
  /// Incremental campaigns (needs checkpoint_dir): the first matrix cell
  /// runs to completion first and every later cell chains off its
  /// checkpoint directory, so cells that differ only in deploy options
  /// (such as their per-run backoff seed) restore every build phase.
  /// Each run journals delta.* metrics (dirty/reused devices, reuse
  /// ratio) that `exp report` aggregates per axis.
  bool incremental = false;
  /// Campaign-wide supervision (non-owning): cancellation and the run
  /// deadline are observed by every worker between runs and by the
  /// running workflows at every phase/sub-phase boundary.
  core::RunControl* control = nullptr;
};

struct CampaignResult {
  std::string name;
  /// All results, sorted by matrix index (deterministic order).
  std::vector<RunResult> results;
  std::size_t executed = 0;  // runs actually executed this invocation
  std::size_t skipped = 0;   // runs satisfied from the journal
  std::size_t resumed = 0;   // runs restarted from a mid-run checkpoint
  std::size_t failed = 0;    // results with ok == false
  /// True when the campaign stopped early on cancellation or an expired
  /// deadline; `results` then holds what completed (partial results are
  /// preserved, and journalled runs stay resumable).
  bool interrupted = false;
  /// Merged per-phase span histograms across all runs, keyed
  /// "span.<phase>.us" (see obs::merge_histograms).
  std::map<std::string, obs::Registry::HistogramSnapshot> merged_spans;

  [[nodiscard]] bool all_ok() const { return failed == 0; }
};

/// The filesystem-safe checkpoint directory name for a run id: non-
/// alphanumerics become '_', with a content-hash suffix so distinct ids
/// never collide after sanitization.
[[nodiscard]] std::string checkpoint_dir_name(const std::string& run_id);

class CampaignRunner {
 public:
  CampaignRunner(CampaignSpec spec, RunnerOptions options = {});

  /// Expands, executes (in parallel), and journals the campaign.
  /// Telemetry lands in telemetry() — a virtual-clock registry unless
  /// use_telemetry() was given one.
  [[nodiscard]] CampaignResult run();

  /// Executes exactly one RunSpec in isolation (no journal, no pool).
  /// The building block workers call; exposed for tests and for
  /// embedding runs in other drivers. A non-empty `checkpoint_dir`
  /// snapshots phases there (and restores any already recorded); an
  /// attached `control` makes the run cancellable — core::Interrupted
  /// propagates to the caller, with completed phases checkpointed.
  /// A non-empty `report_path` writes the run's run_report.json there
  /// (best-effort; a report write failure never fails the run).
  /// A non-empty `baseline_dir` chains the run off that checkpoint
  /// directory (Workflow::incremental_from) and journals the resulting
  /// delta.* metrics.
  [[nodiscard]] static RunResult execute_run(const RunSpec& run,
                                             const CampaignSpec& spec,
                                             obs::Registry* run_registry = nullptr,
                                             const std::string& checkpoint_dir = "",
                                             core::RunControl* control = nullptr,
                                             const std::string& report_path = "",
                                             const std::string& baseline_dir = "");

  /// Campaign-level telemetry registry override (tests).
  CampaignRunner& use_telemetry(obs::Registry* registry) {
    obs_ = registry;
    return *this;
  }
  [[nodiscard]] obs::Registry& telemetry() {
    return obs_ != nullptr ? *obs_ : *owned_obs_;
  }

  [[nodiscard]] const CampaignSpec& spec() const { return spec_; }

 private:
  CampaignSpec spec_;
  RunnerOptions options_;
  std::unique_ptr<obs::Registry> owned_obs_;
  obs::Registry* obs_ = nullptr;
};

}  // namespace autonet::experiment
