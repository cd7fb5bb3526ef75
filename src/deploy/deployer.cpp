#include "deploy/deployer.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "deploy/archive.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"

namespace autonet::deploy {

namespace {

/// The index of the host a device's or tunnel's `host` value names, or
/// hosts.size() when it names none of them.
std::size_t host_named(const std::vector<EmulationHost*>& hosts, const nidb::Value* name) {
  const std::string* wanted = name ? name->as_string() : nullptr;
  for (std::size_t i = 0; wanted != nullptr && i < hosts.size(); ++i) {
    if (hosts[i]->name() == *wanted) return i;
  }
  return hosts.size();
}

}  // namespace

const char* to_string(DeployPhase phase) {
  switch (phase) {
    case DeployPhase::kArchive: return "archive";
    case DeployPhase::kTransfer: return "transfer";
    case DeployPhase::kExtract: return "extract";
    case DeployPhase::kBoot: return "boot";
    case DeployPhase::kStarted: return "started";
    case DeployPhase::kDegraded: return "degraded";
    case DeployPhase::kFailed: return "failed";
    case DeployPhase::kRetriesExhausted: return "retries-exhausted";
    case DeployPhase::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "?";
}

obs::Severity deploy_event_severity(DeployPhase phase) {
  switch (phase) {
    case DeployPhase::kFailed:
    case DeployPhase::kRetriesExhausted:
    case DeployPhase::kDeadlineExceeded:
      return obs::Severity::kError;
    case DeployPhase::kDegraded:
      return obs::Severity::kWarning;
    default:
      return obs::Severity::kInfo;
  }
}

int BackoffClock::next_delay_ms(int attempt, int clamp_ms) {
  // Exponential growth with jitter in [window/2, window], clamped to the
  // ceiling. The jitter mapping is spelled out by hand rather than via
  // std::uniform_int_distribution, whose algorithm is implementation-
  // defined: campaign runs must replay byte-identically across standard
  // libraries, not just across runs of one binary.
  std::int64_t window = base_ms_;
  for (int i = 1; i < attempt && window < max_ms_; ++i) window *= 2;
  window = std::min<std::int64_t>(window, max_ms_);
  const std::uint64_t span = static_cast<std::uint64_t>(window - window / 2) + 1;
  int delay =
      static_cast<int>(window / 2 + static_cast<std::int64_t>(rng_() % span));
  // Deadline-aware clamp, applied after the RNG draw so the jitter
  // stream stays seed-deterministic whether or not a deadline is armed.
  if (clamp_ms >= 0) delay = std::min(delay, clamp_ms);
  phase_ms_ += delay;
  // Under a virtual obs clock the wait is jumped over, not slept: the
  // recorded retry timestamps advance by exactly this delay.
  obs::Registry::current().advance_clock_us(static_cast<std::uint64_t>(delay) *
                                            1000);
  return delay;
}

int backoff_clamp_ms(const BackoffClock& clock, int phase_deadline_ms,
                     const DeployOptions& opts) {
  std::int64_t clamp = -1;
  if (phase_deadline_ms > 0) {
    clamp = std::max<std::int64_t>(0, phase_deadline_ms - clock.phase_ms());
  }
  if (opts.control != nullptr && opts.control->deadline.armed()) {
    const std::int64_t run_left =
        static_cast<std::int64_t>(opts.control->deadline.remaining_us() / 1000);
    clamp = clamp < 0 ? run_left : std::min(clamp, run_left);
  }
  return static_cast<int>(clamp);
}

Deployer::Deployer(std::vector<EmulationHost*> hosts) : hosts_(std::move(hosts)) {
  if (hosts_.empty()) throw std::invalid_argument("Deployer: no hosts");
}

void Deployer::emit(DeployPhase phase, const std::string& host, std::string detail) {
  DeployEvent event{phase, std::move(detail)};
  // Structured telemetry is the primary record; log() renders it.
  obs::Registry& obs = obs::Registry::current();
  obs.counter(std::string("deploy.events.") + to_string(phase)).inc();
  obs::record("deploy", deploy_event_severity(phase), to_string(phase),
              {{"host", host}, {"detail", event.detail}});
  events_.push_back(std::move(event));
}

std::vector<std::string> Deployer::log() const {
  std::vector<std::string> lines;
  lines.reserve(events_.size());
  for (const DeployEvent& event : events_) lines.push_back(event.to_line());
  return lines;
}

std::unique_ptr<emulation::EmulatedNetwork> start_network(
    const nidb::Nidb& nidb, const render::ConfigTree& configs,
    const std::set<std::string>* booted, core::RunControl* control) {
  auto network = std::make_unique<emulation::EmulatedNetwork>(
      emulation::EmulatedNetwork::from_nidb(nidb, configs, booted));
  network->start(128, control);
  return network;
}

DeployResult Deployer::deploy(const render::ConfigTree& configs,
                              const nidb::Nidb& nidb, const DeployOptions& opts) {
  DeployResult result;
  BackoffClock clock(opts);
  slices_.clear();
  for (const EmulationHost* host : hosts_) slices_.emplace_back().host = host->name();
  cross_connects_ = 0;
  network_.reset();
  const std::string& lead = hosts_.front()->name();

  // --- Assign machines: a lone host takes every device, several split
  // them by the devices' `host` attribute --------------------------------
  std::vector<std::vector<std::string>> machines(hosts_.size());
  std::size_t assigned = 0;
  for (const auto* rec : nidb.devices()) {
    const std::size_t at =
        hosts_.size() == 1 ? 0 : host_named(hosts_, rec->data.find("host"));
    if (at == hosts_.size()) continue;
    machines[at].push_back(rec->name);
    ++assigned;
  }
  if (assigned != nidb.device_count()) {
    // A configuration error, not a runtime fault: always fatal.
    emit(DeployPhase::kFailed, lead,
         "only " + std::to_string(assigned) + "/" +
             std::to_string(nidb.device_count()) +
             " machines assigned to the given hosts");
    result.errors.push_back({core::ErrorCategory::kConfig, "",
                             std::to_string(nidb.device_count() - assigned) +
                                 " devices assigned to no given host",
                             false});
    return result;
  }

  // --- Archive + transfer + extract, per host ---------------------------
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const EmulationHost& host = *hosts_[i];
    HostSlice& slice = slices_[i];
    // A host's slice is its own devices' directory plus every file under
    // no given host's directory (lab.conf, topology.net, ...). A lone
    // host's slice is the whole tree, packed without a copy.
    std::optional<render::ConfigTree> part;
    if (hosts_.size() > 1) {
      part.emplace();
      for (const auto& [path, content] : configs) {
        const auto under = [&path](const EmulationHost* h) {
          return path.starts_with(h->name() + "/");
        };
        if (under(&host) || std::none_of(hosts_.begin(), hosts_.end(), under)) {
          part->put(path, content);
        }
      }
    }
    const render::ConfigTree& tree = part ? *part : configs;
    emit(DeployPhase::kArchive, host.name(),
         std::to_string(tree.file_count()) + " files, " +
             std::to_string(tree.total_bytes()) + " bytes");
    const Landing landing = transfer(i, pack(tree), clock, opts, result);
    if (landing == Landing::kExtracted) continue;
    // An offline host's machines are lost.
    slice.online = false;
    slice.lost = std::move(machines[i]);
    result.failed_machines.insert(result.failed_machines.end(), slice.lost.begin(),
                                  slice.lost.end());
    if (landing == Landing::kRunDeadline) return result;
  }
  const auto online_hosts = static_cast<std::size_t>(std::count_if(
      slices_.begin(), slices_.end(), [](const HostSlice& s) { return s.online; }));
  if (online_hosts == 0) return result;

  // --- Boot, per online host ---------------------------------------------
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    if (slices_[i].online && !boot(i, machines[i], clock, opts, result)) return result;
  }

  // --- The contract, checked once ---------------------------------------
  if (result.booted.size() != nidb.device_count()) {
    if (!opts.allow_partial || result.booted.size() < opts.min_booted) {
      emit(DeployPhase::kFailed, lead,
           std::to_string(result.failed_machines.size()) +
               " machines failed to boot");
      return result;
    }
    if (online_hosts < opts.min_host_quorum) {
      emit(DeployPhase::kFailed, lead,
           "quorum not met: " + std::to_string(online_hosts) + " hosts, " +
               std::to_string(result.booted.size()) + " machines up");
      result.errors.push_back({core::ErrorCategory::kHostDown, "",
                               "host quorum not met", false});
      return result;
    }
    result.degraded = true;
  }

  // --- Start the network (full, or the surviving subnetwork) from what
  // the online hosts extracted: a lone host's tree, or their union ---------
  stitch(nidb);
  observe_cancel(opts, "deploy.start_network");
  const std::set<std::string> survivors =
      result.degraded ? std::set<std::string>(result.booted.begin(), result.booted.end())
                      : std::set<std::string>();
  const render::ConfigTree* landed = &hosts_.front()->filesystem();
  render::ConfigTree merged;
  if (hosts_.size() > 1) {
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      if (!slices_[i].online) continue;
      for (const auto& [path, content] : hosts_[i]->filesystem()) merged.put(path, content);
    }
    landed = &merged;
  }
  network_ = start_network(nidb, *landed, result.degraded ? &survivors : nullptr,
                           opts.control);
  result.convergence = network_->last_report();
  result.success = true;
  if (result.degraded) {
    emit(DeployPhase::kDegraded, lead,
         std::to_string(result.booted.size()) + "/" +
             std::to_string(nidb.device_count()) + " machines up, " +
             std::to_string(result.failed_machines.size()) + " lost");
    return result;
  }
  emit(DeployPhase::kStarted, lead,
       std::to_string(result.booted.size()) + " machines, BGP " +
           (result.convergence.converged
                ? "converged in " + std::to_string(result.convergence.rounds) +
                      " rounds"
                : (result.convergence.oscillating ? "OSCILLATING" : "not converged")));
  if (!result.convergence.converged) {
    // The structured timeout (who was still unsettled at the budget)
    // beats the bare "not converged" when it is available.
    if (result.convergence.timeout) {
      result.errors.push_back(result.convergence.timeout->to_error(lead));
    } else {
      result.errors.push_back(
          {core::ErrorCategory::kConvergence, lead,
           result.convergence.oscillating ? "BGP oscillating" : "BGP not converged",
           !result.convergence.oscillating});
    }
  }
  return result;
}

// One host's transfer and extract, retried with backoff under the
// transfer deadline. A refused connection or a checksum mismatch is
// retried until the budget is spent.
Deployer::Landing Deployer::transfer(std::size_t i, const std::string& blob,
                                     BackoffClock& clock, const DeployOptions& opts,
                                     DeployResult& result) {
  EmulationHost& host = *hosts_[i];
  HostSlice& slice = slices_[i];
  const std::string& name = host.name();
  clock.reset_phase();
  for (int attempt = 1; attempt <= opts.max_transfer_attempts; ++attempt) {
    observe_cancel(opts, "deploy.transfer.attempt");
    if (attempt > 1) {
      const int delay = clock.next_delay_ms(
          attempt - 1, backoff_clamp_ms(clock, opts.transfer_deadline_ms, opts));
      result.backoff_ms += delay;
      const bool run_expired = run_deadline_expired(opts);
      if (clock.past_deadline(opts.transfer_deadline_ms) || run_expired) {
        emit(DeployPhase::kDeadlineExceeded, name,
             "transfer deadline exceeded (" + std::to_string(clock.phase_ms()) +
                 "ms budget " + std::to_string(opts.transfer_deadline_ms) + "ms)");
        result.errors.push_back({core::ErrorCategory::kDeadline, name,
                                 "transfer phase deadline exceeded", false});
        return run_expired ? Landing::kRunDeadline : Landing::kFailed;
      }
      emit(DeployPhase::kTransfer, name, "backoff " + std::to_string(delay) + "ms");
    }
    slice.transfer_attempts = attempt;
    ++result.transfer_attempts;
    emit(DeployPhase::kTransfer, name,
         opts.username + "@" + name + " attempt " + std::to_string(attempt));
    if (!host.receive(blob)) {
      emit(DeployPhase::kTransfer, name, name + ": connection refused");
      continue;
    }
    if (host.extract()) {
      emit(DeployPhase::kExtract, name, "archive verified and extracted");
      return Landing::kExtracted;
    }
    emit(DeployPhase::kExtract, name, "checksum mismatch, retrying");
    result.errors.push_back({core::ErrorCategory::kTransfer, name,
                             "checksum mismatch on attempt " + std::to_string(attempt),
                             true});
  }
  const std::string failed =
      "transfer failed after " + std::to_string(slice.transfer_attempts) + " attempts";
  emit(DeployPhase::kRetriesExhausted, name, failed);
  result.errors.push_back({core::ErrorCategory::kHostDown, name, failed, false});
  return Landing::kFailed;
}

// One host's machines, each retried with backoff under the boot
// deadline. False when the boot deadline or the run deadline ran out,
// which ends the deployment.
bool Deployer::boot(std::size_t i, const std::vector<std::string>& machines,
                    BackoffClock& clock, const DeployOptions& opts,
                    DeployResult& result) {
  EmulationHost& host = *hosts_[i];
  HostSlice& slice = slices_[i];
  clock.reset_phase();
  for (const std::string& machine : machines) {
    observe_cancel(opts, "deploy.boot." + machine);
    bool up = false;
    bool out_of_time = false;
    int attempts = 0;
    for (int attempt = 1; attempt <= opts.max_boot_attempts; ++attempt) {
      if (attempt > 1) {
        const int delay = clock.next_delay_ms(
            attempt - 1, backoff_clamp_ms(clock, opts.boot_deadline_ms, opts));
        result.backoff_ms += delay;
        if (clock.past_deadline(opts.boot_deadline_ms) || run_deadline_expired(opts)) {
          out_of_time = true;
          break;
        }
        emit(DeployPhase::kBoot, host.name(),
             machine + " retry after " + std::to_string(delay) + "ms backoff");
      }
      attempts = attempt;
      ++result.boot_attempts;
      up = host.try_boot(machine);
      emit(DeployPhase::kBoot, host.name(),
           machine + (up ? " up" : " FAILED (attempt " + std::to_string(attempt) + ")"));
      if (up) break;
    }
    if (up) {
      slice.booted.push_back(machine);
      result.booted.push_back(machine);
    } else {
      slice.failed.push_back(machine);
      result.failed_machines.push_back(machine);
      result.errors.push_back({core::ErrorCategory::kBoot, machine,
                               "failed to boot after " + std::to_string(attempts) +
                                   " attempts",
                               false});
    }
    if (out_of_time) {
      emit(DeployPhase::kDeadlineExceeded, host.name(),
           "boot deadline exceeded (" + std::to_string(clock.phase_ms()) +
               "ms budget " + std::to_string(opts.boot_deadline_ms) + "ms)");
      result.errors.push_back({core::ErrorCategory::kDeadline, host.name(),
                               "boot phase deadline exceeded", false});
      return false;
    }
  }
  return true;
}

// Cross-host links are part of the compiled lab (the GRE tunnel list in
// the network data); those between two different given hosts that are
// both online are stitched, so a lone host stitches none.
void Deployer::stitch(const nidb::Nidb& nidb) {
  const nidb::Value* cross = nidb.data().find("cross_connects");
  const nidb::Array* tunnels = cross ? cross->as_array() : nullptr;
  if (tunnels == nullptr) return;
  for (const nidb::Value& t : *tunnels) {
    const std::size_t src = host_named(hosts_, t.find("src_host"));
    const std::size_t dst = host_named(hosts_, t.find("dst_host"));
    if (src == hosts_.size() || dst == hosts_.size() || src == dst) continue;
    if (!slices_[src].online || !slices_[dst].online) continue;
    ++cross_connects_;
    const nidb::Value* tunnel = t.find("tunnel");
    const std::string& from = hosts_[src]->name();
    emit(DeployPhase::kBoot, from,
         "stitch " + (tunnel ? tunnel->to_display() : "gre") + " " + from + " <-> " +
             hosts_[dst]->name());
  }
}

}  // namespace autonet::deploy
