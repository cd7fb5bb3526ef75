#include "deploy/multihost.hpp"

#include <set>
#include <stdexcept>

#include "deploy/archive.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"

namespace autonet::deploy {

int MultiHostResult::total_transfer_attempts() const {
  int total = 0;
  for (const auto& slice : slices) total += slice.transfer_attempts;
  return total;
}

std::vector<std::string> MultiHostResult::all_failed_machines() const {
  std::vector<std::string> out;
  for (const auto& slice : slices) {
    out.insert(out.end(), slice.failed.begin(), slice.failed.end());
    out.insert(out.end(), slice.lost.begin(), slice.lost.end());
  }
  return out;
}

MultiHostDeployer::MultiHostDeployer(std::vector<EmulationHost*> hosts,
                                     Deployer::Logger logger)
    : hosts_(std::move(hosts)), logger_(std::move(logger)) {
  if (hosts_.empty()) {
    throw std::invalid_argument("MultiHostDeployer: no hosts");
  }
}

void MultiHostDeployer::emit(DeployPhase phase, std::string detail) {
  DeployEvent event{phase, std::move(detail)};
  obs::Registry& obs = obs::Registry::current();
  obs.counter(std::string("deploy.events.") + to_string(phase)).inc();
  obs::record("deploy", deploy_event_severity(phase), to_string(phase),
              {{"detail", event.detail}});
  if (logger_) logger_(event);
  events_.push_back(std::move(event));
}

std::vector<std::string> MultiHostDeployer::log() const {
  std::vector<std::string> lines;
  lines.reserve(events_.size());
  for (const DeployEvent& event : events_) lines.push_back(event.to_line());
  return lines;
}

MultiHostResult MultiHostDeployer::deploy(const render::ConfigTree& configs,
                                          const nidb::Nidb& nidb,
                                          const DeployOptions& opts) {
  MultiHostResult result;
  BackoffClock clock(opts);

  // Shared artefacts (lab.conf, topology.net, network.cli, ...): any file
  // not under a host directory goes to every host.
  render::ConfigTree shared;
  for (const auto& [path, content] : configs) {
    bool host_scoped = false;
    for (const auto* host : hosts_) {
      if (path.starts_with(host->name() + "/")) host_scoped = true;
    }
    if (!host_scoped) shared.put(path, content);
  }

  // Per-host: slice, archive, transfer (with retry + backoff), extract.
  // A failing host no longer aborts the loop — every slice is driven to
  // completion so the result attributes failures per host.
  for (auto* host : hosts_) {
    HostSlice slice;
    slice.host = host->name();
    render::ConfigTree tree = shared;
    for (const auto& path : configs.paths_under(host->name() + "/")) {
      tree.put(path, *configs.get(path));
    }
    slice.files = tree.file_count();
    emit(DeployPhase::kArchive,
         host->name() + ": " + std::to_string(slice.files) + " files");
    const std::string blob = pack(tree);
    bool extracted = false;
    clock.reset_phase();
    for (int attempt = 1; attempt <= opts.max_transfer_attempts; ++attempt) {
      observe_cancel(opts, "deploy.transfer." + host->name());
      if (attempt > 1) {
        const int delay = clock.next_delay_ms(
            attempt - 1,
            backoff_clamp_ms(clock, opts.transfer_deadline_ms, opts));
        if (clock.past_deadline(opts.transfer_deadline_ms) ||
            run_deadline_expired(opts)) {
          emit(DeployPhase::kDeadlineExceeded,
               host->name() + ": transfer deadline exceeded");
          result.errors.push_back({core::ErrorCategory::kDeadline, host->name(),
                                   "transfer phase deadline exceeded", false});
          break;
        }
        emit(DeployPhase::kTransfer,
             host->name() + ": backoff " + std::to_string(delay) + "ms");
      }
      slice.transfer_attempts = attempt;
      emit(DeployPhase::kTransfer, opts.username + "@" + host->name() +
                                       " attempt " + std::to_string(attempt));
      if (!host->receive(blob)) {
        emit(DeployPhase::kTransfer, host->name() + ": connection refused");
        continue;
      }
      if (host->extract()) {
        extracted = true;
        break;
      }
      emit(DeployPhase::kExtract, host->name() + ": checksum mismatch, retrying");
      result.errors.push_back({core::ErrorCategory::kTransfer, host->name(),
                               "checksum mismatch on attempt " +
                                   std::to_string(attempt),
                               true});
    }
    if (!extracted) {
      slice.online = false;
      slice.lost = host->assigned_machines(nidb);
      result.dead_hosts.push_back(host->name());
      emit(DeployPhase::kRetriesExhausted,
           host->name() + ": transfer failed, host dead");
      result.errors.push_back(
          {core::ErrorCategory::kHostDown, host->name(),
           "transfer failed after " + std::to_string(slice.transfer_attempts) +
               " attempts; " + std::to_string(slice.lost.size()) +
               " machines lost",
           false});
    } else {
      emit(DeployPhase::kExtract, host->name() + ": extracted");
    }
    result.slices.push_back(std::move(slice));
  }

  // Boot each surviving host's assigned machines, with per-machine
  // retries.
  std::set<std::string> booted_machines;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    auto* host = hosts_[i];
    auto& slice = result.slices[i];
    if (!slice.online) continue;
    clock.reset_phase();
    for (const auto& machine : host->assigned_machines(nidb)) {
      observe_cancel(opts, "deploy.boot." + machine);
      bool up = false;
      for (int attempt = 1; attempt <= opts.max_boot_attempts; ++attempt) {
        if (attempt > 1) {
          const int delay = clock.next_delay_ms(
              attempt - 1, backoff_clamp_ms(clock, opts.boot_deadline_ms, opts));
          if (clock.past_deadline(opts.boot_deadline_ms) ||
              run_deadline_expired(opts)) {
            break;
          }
          emit(DeployPhase::kBoot, host->name() + ": " + machine +
                                       " retry after " + std::to_string(delay) +
                                       "ms backoff");
        }
        up = host->try_boot(machine);
        emit(DeployPhase::kBoot,
             host->name() + ": " + machine +
                 (up ? " up" : " FAILED (attempt " + std::to_string(attempt) + ")"));
        if (up) break;
      }
      if (up) {
        slice.booted.push_back(machine);
        booted_machines.insert(machine);
      } else {
        slice.failed.push_back(machine);
        result.errors.push_back({core::ErrorCategory::kBoot, machine,
                                 "failed to boot on " + host->name(), false});
      }
    }
    if (!slice.failed.empty()) {
      emit(DeployPhase::kFailed, host->name() + ": " +
                                     std::to_string(slice.failed.size()) +
                                     " machines failed");
    }
  }

  // Devices assigned to none of the given hosts are a configuration
  // error, not a runtime fault — always fatal.
  std::size_t assigned = 0;
  for (const auto& slice : result.slices) {
    assigned += slice.booted.size() + slice.failed.size() + slice.lost.size();
  }
  if (assigned != nidb.device_count()) {
    emit(DeployPhase::kFailed,
         "only " + std::to_string(assigned) + "/" +
             std::to_string(nidb.device_count()) +
             " machines assigned to the given hosts");
    result.errors.push_back(
        {core::ErrorCategory::kConfig, "",
         std::to_string(nidb.device_count() - assigned) +
             " devices assigned to no given host",
         false});
    return result;
  }

  // --- Evaluate the contract -------------------------------------------
  const std::size_t surviving_hosts = hosts_.size() - result.dead_hosts.size();
  const bool fully_booted = booted_machines.size() == nidb.device_count();
  if (!fully_booted) {
    if (!opts.allow_partial) {
      emit(DeployPhase::kFailed,
           std::to_string(nidb.device_count() - booted_machines.size()) +
               " machines down, partial deployment not allowed");
      return result;
    }
    if (surviving_hosts < opts.min_host_quorum ||
        booted_machines.size() < opts.min_booted) {
      emit(DeployPhase::kFailed,
           "quorum not met: " + std::to_string(surviving_hosts) + " hosts, " +
               std::to_string(booted_machines.size()) + " machines up");
      result.errors.push_back({core::ErrorCategory::kHostDown, "",
                               "host quorum not met", false});
      return result;
    }
    result.degraded = true;
  }

  // Cross-host stitching is part of the compiled lab (GRE tunnel list in
  // the network data); report it and boot the combined control plane.
  if (const nidb::Value* cross = nidb.data().find("cross_connects")) {
    if (const nidb::Array* arr = cross->as_array()) {
      result.cross_connects = arr->size();
      for (const nidb::Value& t : *arr) {
        const nidb::Value* tunnel = t.find("tunnel");
        emit(DeployPhase::kBoot,
             "stitch " + (tunnel ? tunnel->to_display() : "gre") + " " +
                 t.find("src_host")->to_display() + " <-> " +
                 t.find("dst_host")->to_display());
      }
    }
  }

  observe_cancel(opts, "deploy.start_network");
  network_ = std::make_unique<emulation::EmulatedNetwork>(
      emulation::EmulatedNetwork::from_nidb(
          nidb, configs, fully_booted ? nullptr : &booted_machines));
  result.convergence = network_->start(128, opts.control);
  result.success = true;
  if (!result.convergence.converged) {
    if (result.convergence.timeout) {
      result.errors.push_back(
          result.convergence.timeout->to_error(hosts_.front()->name()));
    } else {
      result.errors.push_back(
          {core::ErrorCategory::kConvergence, hosts_.front()->name(),
           result.convergence.oscillating ? "BGP oscillating" : "BGP not converged",
           !result.convergence.oscillating});
    }
  }
  emit(result.degraded ? DeployPhase::kDegraded : DeployPhase::kStarted,
       std::to_string(booted_machines.size()) + "/" +
           std::to_string(nidb.device_count()) + " machines on " +
           std::to_string(surviving_hosts) + "/" +
           std::to_string(hosts_.size()) + " hosts, " +
           std::to_string(result.cross_connects) + " cross-host links");
  return result;
}

}  // namespace autonet::deploy
