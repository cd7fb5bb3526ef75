// Distributed deployment (paper §3.3/§5.4: "we deploy the many VMs
// together with their networking to a suitable set of hosts, currently
// StarBed"; cross-host links are realised as "GRE tunnels between
// distributed Open vSwitches").
//
// Each emulation host receives only its slice of the configuration tree
// (the devices whose `host` attribute names it) plus the shared lab
// artefacts; the coordinator boots the combined control plane once every
// host reports its machines up, stitching cross-host links.
//
// Unlike the original all-or-nothing pipeline, a failing slice no longer
// aborts the deployment mid-flight: every host is driven to completion
// so the result attributes failures per slice (transfer attempts, failed
// machines, dead hosts), and with `DeployOptions::allow_partial` the
// coordinator boots the surviving subnetwork when the host quorum holds.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/error.hpp"
#include "deploy/deployer.hpp"
#include "deploy/host.hpp"

namespace autonet::deploy {

struct HostSlice {
  std::string host;
  std::size_t files = 0;
  /// False once the host is declared dead (transfer never succeeded).
  bool online = true;
  std::vector<std::string> booted;
  std::vector<std::string> failed;
  /// Machines assigned to this host that never got the chance to boot
  /// because the host itself died.
  std::vector<std::string> lost;
  int transfer_attempts = 0;
};

/// Combined outcome. `success` is true iff a network is running and the
/// contract was met: every host extracted and every machine booted in
/// strict mode, or the surviving hosts meet `min_host_quorum` (and
/// `min_booted`) in partial mode — then `degraded` is set and every
/// casualty appears both in its slice and as a typed entry in `errors`.
struct MultiHostResult {
  bool success = false;
  bool degraded = false;
  std::vector<HostSlice> slices;
  std::vector<std::string> dead_hosts;
  std::size_t cross_connects = 0;
  emulation::ConvergenceReport convergence;
  core::ErrorList errors;

  /// Aggregations over all slices.
  [[nodiscard]] int total_transfer_attempts() const;
  [[nodiscard]] std::vector<std::string> all_failed_machines() const;
};

class MultiHostDeployer {
 public:
  /// Hosts must be named to match the device `host` attributes; the
  /// first host acts as the coordinator running the combined network.
  explicit MultiHostDeployer(std::vector<EmulationHost*> hosts,
                             Deployer::Logger logger = {});

  MultiHostResult deploy(const render::ConfigTree& configs,
                         const nidb::Nidb& nidb, const DeployOptions& opts = {});

  /// The combined running network (on the coordinator); nullptr before a
  /// successful deploy.
  [[nodiscard]] emulation::EmulatedNetwork* network() { return network_.get(); }

  /// The structured event stream (also recorded as "deploy" flight-
  /// recorder events and deploy.events.<phase> counters in the current
  /// telemetry registry).
  [[nodiscard]] const std::vector<DeployEvent>& events() const { return events_; }

  /// Backward-compatible rendered view of events().
  [[nodiscard]] std::vector<std::string> log() const;

 private:
  void emit(DeployPhase phase, std::string detail);

  std::vector<EmulationHost*> hosts_;
  Deployer::Logger logger_;
  std::vector<DeployEvent> events_;
  std::unique_ptr<emulation::EmulatedNetwork> network_;
  emulation::ConvergenceReport convergence_;
};

}  // namespace autonet::deploy
