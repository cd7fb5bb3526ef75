// A simulated emulation host (StarBed node / lab server): receives
// archives over a simulated transfer, extracts them into its filesystem
// and boots machines one attempt at a time; the deployer starts the
// emulated control plane from the extracted tree, over the machines that
// came up. Failure injection covers the paths a real deployment can
// break on — truncated transfers, machines that fail to boot, and hosts
// that are entirely dead — either through the legacy one-shot hooks or
// through an attached deterministic FaultPlan, so the deployer's
// retry/degradation logic is testable.
#pragma once

#include <set>
#include <string>

#include "deploy/faults.hpp"
#include "render/config_tree.hpp"

namespace autonet::deploy {

class EmulationHost {
 public:
  explicit EmulationHost(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  // --- Failure injection -------------------------------------------------
  /// The next transfer is truncated (checksum failure at extract).
  void corrupt_next_transfer() { corrupt_next_ = true; }
  /// The named machine fails to boot until cleared.
  void fail_boot_of(std::string machine) { boot_failures_.insert(std::move(machine)); }
  void clear_boot_failures() { boot_failures_.clear(); }
  /// Attaches a shared fault plan; pass nullptr to detach. The plan is
  /// consulted on every transfer and boot attempt, and decides whether
  /// the host is dead outright.
  void attach_faults(FaultPlan* plan) { faults_ = plan; }
  /// False when an attached fault plan declares this host dead.
  [[nodiscard]] bool online() const {
    return faults_ == nullptr || !faults_->host_dead(name_);
  }

  // --- Deployment steps ------------------------------------------------
  /// Simulated scp: stores the blob (possibly corrupted by injection).
  /// Returns false when the host is dead (connection refused).
  bool receive(std::string blob);
  /// Unpacks the stored blob into the host filesystem and drops the blob;
  /// false on checksum failure (the deployer then retries the transfer)
  /// or dead host.
  bool extract();
  [[nodiscard]] const render::ConfigTree& filesystem() const { return fs_; }

  /// One boot attempt for one machine; false when the machine is in the
  /// boot-failure set, the fault plan injects a failure, or the host is
  /// dead. The deployer drives per-machine retries through this.
  bool try_boot(const std::string& machine);

 private:
  std::string name_;
  std::string inbox_;
  render::ConfigTree fs_;
  bool corrupt_next_ = false;
  std::set<std::string> boot_failures_;
  FaultPlan* faults_ = nullptr;
};

}  // namespace autonet::deploy
