// The deployment automation (paper §5.7): "archives the generated
// configuration files, transfers them to the emulation host, extracts
// them, and runs the Netkit lstart command. The progress is monitored
// with updates provided to the user through logs."
//
// One deployer serves one emulation host or many (§3.3/§5.4: "we deploy
// the many VMs together with their networking to a suitable set of
// hosts, currently StarBed"; cross-host links are realised as "GRE
// tunnels between distributed Open vSwitches"). A lone host takes every
// device and the whole configuration tree. With several hosts, each
// device goes to the host its `host` attribute names, and each host
// receives only its slice of the tree (its devices plus the shared lab
// artefacts). One loop archives and transfers per host, boots per
// online host, checks the deployment contract once, stitches the
// cross-host links and starts the combined network once.
//
// Beyond the paper's happy path, the deployer is written for the flaky
// substrate §5.7 describes (StarBed nodes, checksum-failing transfers):
// every phase has a retry budget with exponential backoff + deterministic
// jitter and a virtual-time deadline. A host whose transfer never lands
// goes offline with its machines lost, and the loop moves on to the next
// host; boot failures are retried per machine; a boot deadline or an
// expired run deadline ends the whole deployment; and with
// `allow_partial` dead machines (or hosts) degrade the deployment to a
// running subnetwork instead of failing it outright. All failures are
// reported as typed core::Error records.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/error.hpp"
#include "deploy/host.hpp"
#include "emulation/network.hpp"
#include "nidb/nidb.hpp"
#include "obs/event.hpp"
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
  /// When machines (or whole hosts) stay dead after retries, boot the
  /// surviving subnetwork instead of failing the deployment.
  bool allow_partial = false;
  /// Partial deployments need at least this many machines up.
  std::size_t min_booted = 1;
  /// Partial deployments need at least this many hosts online.
  std::size_t min_host_quorum = 1;

  // --- Supervision ------------------------------------------------------
  /// Optional run supervision (non-owning; must outlive the deploy call).
  /// Cancellation is observed between attempts and per machine boot; an
  /// armed run deadline clamps backoff waits (a virtual sleep never
  /// overshoots it) and aborts the deployment with a kDeadlineExceeded
  /// event + kDeadline error when it expires.
  core::RunControl* control = nullptr;
};

/// Outcome of a deployment, totalled over hosts.
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
  /// Machines that failed to boot, and those lost with their host.
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

/// One host's share of the last deployment.
struct HostSlice {
  std::string host;
  /// False once the host's transfer never landed.
  bool online = true;
  std::vector<std::string> booted;
  std::vector<std::string> failed;
  /// Machines assigned to this host that never got the chance to boot
  /// because the host itself went offline.
  std::vector<std::string> lost;
  int transfer_attempts = 0;
};

class BackoffClock;

class Deployer {
 public:
  /// Hosts are named to match the devices' `host` attributes, except a
  /// lone host, which takes every device. The first host reports the
  /// lab-wide events and errors. Throws std::invalid_argument without
  /// hosts.
  explicit Deployer(std::vector<EmulationHost*> hosts);

  /// Runs the full pipeline: packs `configs` per host, then starts the
  /// network from what the online hosts extracted (a lone host's
  /// filesystem(), or the union of several). On success network() is
  /// running.
  DeployResult deploy(const render::ConfigTree& configs, const nidb::Nidb& nidb,
                      const DeployOptions& opts = {});

  /// The structured event stream (also recorded as "deploy" flight-
  /// recorder events naming their host, and deploy.events.<phase>
  /// counters, in the current telemetry registry).
  [[nodiscard]] const std::vector<DeployEvent>& events() const { return events_; }

  /// Backward-compatible rendered view of events().
  [[nodiscard]] std::vector<std::string> log() const;

  /// The last deployment per host, in host order.
  [[nodiscard]] const std::vector<HostSlice>& slices() const { return slices_; }
  /// Cross-host links the last deployment stitched: those between two
  /// online hosts.
  [[nodiscard]] std::size_t cross_connects() const { return cross_connects_; }

  /// The running network; nullptr unless the last deployment succeeded.
  [[nodiscard]] emulation::EmulatedNetwork* network() { return network_.get(); }
  /// Hands the running network to the caller (network() is then null).
  [[nodiscard]] std::unique_ptr<emulation::EmulatedNetwork> take_network() {
    return std::move(network_);
  }

 private:
  /// How a host's transfer ended.
  enum class Landing { kExtracted, kFailed, kRunDeadline };

  void emit(DeployPhase phase, const std::string& host, std::string detail);
  /// Host i's transfer and extract.
  Landing transfer(std::size_t i, const std::string& blob, BackoffClock& clock,
                   const DeployOptions& opts, DeployResult& result);
  /// Host i's boots; false when a deadline ended the deployment.
  bool boot(std::size_t i, const std::vector<std::string>& machines,
            BackoffClock& clock, const DeployOptions& opts, DeployResult& result);
  void stitch(const nidb::Nidb& nidb);

  std::vector<EmulationHost*> hosts_;
  std::vector<DeployEvent> events_;
  std::vector<HostSlice> slices_;
  std::size_t cross_connects_ = 0;
  std::unique_ptr<emulation::EmulatedNetwork> network_;
};

/// Starts the emulated control plane of a deployed lab from its NIDB and
/// the tree its hosts hold: the devices in `booted`, or every device when
/// null, with a budget of 128 BGP rounds. An optional RunControl
/// interrupts convergence per BGP round. The network's last_report()
/// holds the convergence report.
[[nodiscard]] std::unique_ptr<emulation::EmulatedNetwork> start_network(
    const nidb::Nidb& nidb, const render::ConfigTree& configs,
    const std::set<std::string>* booted, core::RunControl* control);

/// Exponential backoff with deterministic jitter, one clock per
/// deployment across all its hosts. Time is virtual: delays are computed
/// and logged, not slept, so runs are fast and reproducible.
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
/// deployer reports it structurally (kDeadlineExceeded event + kDeadline
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
