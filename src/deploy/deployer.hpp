// The deployment automation (paper §5.7): "archives the generated
// configuration files, transfers them to the emulation host, extracts
// them, and runs the Netkit lstart command. The progress is monitored
// with updates provided to the user through logs."
//
// Beyond the paper's happy path, the deployer is written for the flaky
// substrate §5.7 describes (StarBed nodes, checksum-failing transfers):
// every phase has a retry budget with exponential backoff + deterministic
// jitter and a virtual-time deadline, boot failures are retried per
// machine, and with `allow_partial` a subset of dead machines degrades
// the deployment to a running subnetwork instead of failing it outright.
// All failures are reported as typed core::Error records.
#pragma once

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/error.hpp"
#include "deploy/host.hpp"
#include "obs/event.hpp"
#include "nidb/nidb.hpp"
#include "render/config_tree.hpp"

namespace autonet::deploy {

enum class DeployPhase {
  kArchive,
  kTransfer,
  kExtract,
  kBoot,
  kStarted,
  kDegraded,
  kFailed,
  /// A retry budget (max_transfer_attempts / max_boot_attempts) ran out.
  kRetriesExhausted,
  /// A time budget ran out — the phase deadline or the run deadline of an
  /// attached RunControl. Distinct from kRetriesExhausted so operators
  /// can tell "kept failing" from "ran out of time".
  kDeadlineExceeded,
};

[[nodiscard]] const char* to_string(DeployPhase phase);

/// Flight-recorder severity of a deploy event: faults and exhausted
/// budgets are errors, degraded service is a warning, the rest is
/// routine progress.
[[nodiscard]] obs::Severity deploy_event_severity(DeployPhase phase);

struct DeployEvent {
  DeployPhase phase;
  std::string detail;
  /// The legacy log-line rendering ("<phase>: <detail>").
  [[nodiscard]] std::string to_line() const {
    return std::string(to_string(phase)) + ": " + detail;
  }
};

struct DeployOptions {
  std::string username = "autonet";
  /// Transfer retries on checksum failure.
  int max_transfer_attempts = 3;
  /// Boot attempts per machine (transient boot faults are retried).
  int max_boot_attempts = 3;

  // --- Backoff (virtual time; deterministic under backoff_seed) ---------
  int backoff_base_ms = 100;
  int backoff_max_ms = 5000;
  std::uint64_t backoff_seed = 0;
  /// Virtual-time budget per phase (transfer / boot); 0 = unlimited.
  int transfer_deadline_ms = 60000;
  int boot_deadline_ms = 60000;

  // --- Graceful degradation --------------------------------------------
  /// When machines (or, for multi-host deployments, whole hosts) stay
  /// dead after retries, boot the surviving subnetwork instead of
  /// failing the deployment.
  bool allow_partial = false;
  /// Partial deployments need at least this many machines up.
  std::size_t min_booted = 1;
  /// Multi-host: at least this many hosts must survive transfer+boot.
  std::size_t min_host_quorum = 1;

  // --- Supervision ------------------------------------------------------
  /// Optional run supervision (non-owning; must outlive the deploy call).
  /// Cancellation is observed between attempts and per machine boot; an
  /// armed run deadline clamps backoff waits (a virtual sleep never
  /// overshoots it) and aborts the deployment with a kDeadlineExceeded
  /// event + kDeadline error when it expires.
  core::RunControl* control = nullptr;
};

/// Outcome of a deployment.
///
/// Semantics are explicit: `success` is true iff a network is running
/// AND the deployment contract was met — all machines booted in strict
/// mode, or the quorum (`min_booted` / `min_host_quorum`) in partial
/// mode. `failed_machines` non-empty therefore implies either
/// `success == false` (strict) or `degraded == true` (partial, with the
/// casualties itemised in `errors`). A network may be running even when
/// degraded; check `degraded` before trusting full coverage.
struct DeployResult {
  bool success = false;
  /// Partial deployment: the network runs without some machines.
  bool degraded = false;
  std::vector<std::string> booted;
  std::vector<std::string> failed_machines;
  int transfer_attempts = 0;
  /// Total boot attempts across all machines (retries included).
  int boot_attempts = 0;
  /// Virtual milliseconds spent in backoff waits.
  int backoff_ms = 0;
  emulation::ConvergenceReport convergence;
  /// Typed failure report: one entry per fault that affected the run.
  core::ErrorList errors;
};

class Deployer {
 public:
  using Logger = std::function<void(const DeployEvent&)>;

  explicit Deployer(EmulationHost& host, Logger logger = {})
      : host_(&host), logger_(std::move(logger)) {}

  /// Runs the full pipeline. On success the host's network() is running.
  DeployResult deploy(const render::ConfigTree& configs, const nidb::Nidb& nidb,
                      const DeployOptions& opts = {});

  /// The structured event stream (also recorded as "deploy" flight-
  /// recorder events and deploy.events.<phase> counters in the current
  /// telemetry registry, and passed to the logger as events happen).
  [[nodiscard]] const std::vector<DeployEvent>& events() const { return events_; }

  /// Backward-compatible rendered view of events().
  [[nodiscard]] std::vector<std::string> log() const;

 private:
  void emit(DeployPhase phase, std::string detail);

  EmulationHost* host_;
  Logger logger_;
  std::vector<DeployEvent> events_;
};

/// Exponential backoff with deterministic jitter, shared by the single-
/// and multi-host deployers. Time is virtual: delays are computed and
/// logged, not slept, so runs are fast and reproducible.
class BackoffClock {
 public:
  explicit BackoffClock(const DeployOptions& opts)
      : base_ms_(opts.backoff_base_ms), max_ms_(opts.backoff_max_ms),
        rng_(opts.backoff_seed) {}

  /// Delay before retry number `attempt` (1-based: first retry = 1).
  /// `clamp_ms >= 0` caps the delay (deadline-aware backoff: the wait is
  /// cut to exactly what the remaining budget allows, never past it).
  /// The jitter RNG is consumed before clamping, so clamped and
  /// unclamped runs with the same seed draw the same stream.
  int next_delay_ms(int attempt, int clamp_ms = -1);
  [[nodiscard]] int elapsed_ms() const { return elapsed_ms_; }
  void reset_phase() { phase_ms_ = 0; }
  [[nodiscard]] int phase_ms() const { return phase_ms_; }
  /// True when the phase budget (0 = unlimited) is exhausted.
  [[nodiscard]] bool past_deadline(int deadline_ms) const {
    return deadline_ms > 0 && phase_ms_ >= deadline_ms;
  }

 private:
  int base_ms_;
  int max_ms_;
  std::mt19937_64 rng_;
  int elapsed_ms_ = 0;
  int phase_ms_ = 0;
};

/// The largest backoff the budgets allow right now: the remaining phase
/// budget and the remaining run deadline of the attached RunControl,
/// whichever is tighter (-1 = unbounded). Feeding this into
/// next_delay_ms guarantees a sleep never overshoots either budget.
[[nodiscard]] int backoff_clamp_ms(const BackoffClock& clock,
                                   int phase_deadline_ms,
                                   const DeployOptions& opts);

/// Observes a pending cancellation request (throws core::Cancelled via
/// the control's checkpoint). Deadline expiry is NOT raised here — the
/// deployers report it structurally (kDeadlineExceeded event + kDeadline
/// error + partial result) rather than by unwinding.
inline void observe_cancel(const DeployOptions& opts, std::string_view where) {
  if (opts.control != nullptr && opts.control->token.cancelled()) {
    opts.control->checkpoint(where);
  }
}

[[nodiscard]] inline bool run_deadline_expired(const DeployOptions& opts) {
  return opts.control != nullptr && opts.control->deadline.expired();
}

}  // namespace autonet::deploy
