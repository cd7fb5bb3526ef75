#include "deploy/deployer.hpp"

#include <algorithm>

#include "deploy/archive.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"

namespace autonet::deploy {

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
  elapsed_ms_ += delay;
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

void Deployer::emit(DeployPhase phase, std::string detail) {
  DeployEvent event{phase, std::move(detail)};
  // Structured telemetry is the primary record; log() renders it.
  obs::Registry& obs = obs::Registry::current();
  obs.counter(std::string("deploy.events.") + to_string(phase)).inc();
  obs::record("deploy", deploy_event_severity(phase), to_string(phase),
              {{"host", host_->name()}, {"detail", event.detail}});
  if (logger_) logger_(event);
  events_.push_back(std::move(event));
}

std::vector<std::string> Deployer::log() const {
  std::vector<std::string> lines;
  lines.reserve(events_.size());
  for (const DeployEvent& event : events_) lines.push_back(event.to_line());
  return lines;
}

DeployResult Deployer::deploy(const render::ConfigTree& configs,
                              const nidb::Nidb& nidb, const DeployOptions& opts) {
  DeployResult result;
  BackoffClock clock(opts);

  emit(DeployPhase::kArchive,
       std::to_string(configs.file_count()) + " files, " +
           std::to_string(configs.total_bytes()) + " bytes");
  const std::string blob = pack(configs);

  // --- Transfer + extract, retried with backoff under a deadline --------
  if (!host_->online()) {
    emit(DeployPhase::kFailed, host_->name() + " is unreachable");
    result.errors.push_back({core::ErrorCategory::kHostDown, host_->name(),
                             "host unreachable", false});
    return result;
  }
  bool extracted = false;
  clock.reset_phase();
  for (int attempt = 1; attempt <= opts.max_transfer_attempts; ++attempt) {
    observe_cancel(opts, "deploy.transfer.attempt");
    if (attempt > 1) {
      const int delay = clock.next_delay_ms(
          attempt - 1, backoff_clamp_ms(clock, opts.transfer_deadline_ms, opts));
      if (clock.past_deadline(opts.transfer_deadline_ms) ||
          run_deadline_expired(opts)) {
        emit(DeployPhase::kDeadlineExceeded,
             "transfer deadline exceeded (" + std::to_string(clock.phase_ms()) +
                 "ms budget " + std::to_string(opts.transfer_deadline_ms) + "ms)");
        result.errors.push_back({core::ErrorCategory::kDeadline, host_->name(),
                                 "transfer phase deadline exceeded", false});
        result.backoff_ms = clock.elapsed_ms();
        return result;
      }
      emit(DeployPhase::kTransfer, "backoff " + std::to_string(delay) + "ms");
    }
    result.transfer_attempts = attempt;
    emit(DeployPhase::kTransfer, opts.username + "@" + host_->name() +
                                     " attempt " + std::to_string(attempt));
    if (!host_->receive(blob)) {
      emit(DeployPhase::kTransfer, host_->name() + ": connection refused");
      continue;
    }
    if (host_->extract()) {
      extracted = true;
      emit(DeployPhase::kExtract, "archive verified and extracted");
      break;
    }
    emit(DeployPhase::kExtract, "checksum mismatch, retrying");
    result.errors.push_back({core::ErrorCategory::kTransfer, host_->name(),
                             "checksum mismatch on attempt " +
                                 std::to_string(attempt),
                             true});
  }
  result.backoff_ms = clock.elapsed_ms();
  if (!extracted) {
    emit(DeployPhase::kRetriesExhausted,
         "transfer failed after " + std::to_string(result.transfer_attempts) +
             " attempts");
    result.errors.push_back(
        {core::ErrorCategory::kHostDown, host_->name(),
         "transfer failed after " + std::to_string(result.transfer_attempts) +
             " attempts",
         false});
    return result;
  }

  // --- Boot, retried per machine under a deadline -----------------------
  clock.reset_phase();
  bool boot_deadline_hit = false;
  for (const auto* rec : nidb.devices()) {
    const std::string& machine = rec->name;
    observe_cancel(opts, "deploy.boot." + machine);
    bool up = false;
    for (int attempt = 1; attempt <= opts.max_boot_attempts; ++attempt) {
      if (attempt > 1) {
        const int delay = clock.next_delay_ms(
            attempt - 1, backoff_clamp_ms(clock, opts.boot_deadline_ms, opts));
        if (clock.past_deadline(opts.boot_deadline_ms) ||
            run_deadline_expired(opts)) {
          boot_deadline_hit = true;
          break;
        }
        emit(DeployPhase::kBoot, machine + " retry after " +
                                     std::to_string(delay) + "ms backoff");
      }
      ++result.boot_attempts;
      up = host_->try_boot(machine);
      emit(DeployPhase::kBoot,
           machine + (up ? " up" : " FAILED (attempt " +
                                       std::to_string(attempt) + ")"));
      if (up) break;
    }
    if (up) {
      result.booted.push_back(machine);
    } else {
      result.failed_machines.push_back(machine);
      result.errors.push_back({core::ErrorCategory::kBoot, machine,
                               "failed to boot after " +
                                   std::to_string(opts.max_boot_attempts) +
                                   " attempts",
                               false});
    }
    if (boot_deadline_hit) {
      emit(DeployPhase::kDeadlineExceeded,
           "boot deadline exceeded (" + std::to_string(clock.phase_ms()) +
               "ms budget " + std::to_string(opts.boot_deadline_ms) + "ms)");
      result.errors.push_back({core::ErrorCategory::kDeadline, host_->name(),
                               "boot phase deadline exceeded", false});
      result.backoff_ms = clock.elapsed_ms();
      return result;
    }
  }
  result.backoff_ms = clock.elapsed_ms();

  // --- Start the control plane (full, or the surviving subnetwork) ------
  if (!result.failed_machines.empty() ||
      result.booted.size() != nidb.device_count()) {
    if (!opts.allow_partial || result.booted.size() < opts.min_booted) {
      emit(DeployPhase::kFailed,
           std::to_string(result.failed_machines.size()) +
               " machines failed to boot");
      return result;
    }
    std::set<std::string> survivors(result.booted.begin(), result.booted.end());
    observe_cancel(opts, "deploy.start_network");
    result.convergence =
        host_->start_network(nidb, host_->filesystem(), survivors, opts.control);
    result.degraded = true;
    result.success = true;
    emit(DeployPhase::kDegraded,
         std::to_string(result.booted.size()) + "/" +
             std::to_string(nidb.device_count()) + " machines up, " +
             std::to_string(result.failed_machines.size()) + " lost");
    return result;
  }

  observe_cancel(opts, "deploy.start_network");
  result.convergence =
      host_->start_network(nidb, host_->filesystem(), {}, opts.control);
  result.success = true;
  emit(DeployPhase::kStarted,
       std::to_string(result.booted.size()) + " machines, BGP " +
           (result.convergence.converged
                ? "converged in " + std::to_string(result.convergence.rounds) +
                      " rounds"
                : (result.convergence.oscillating ? "OSCILLATING" : "not converged")));
  if (!result.convergence.converged) {
    // The structured timeout (who was still unsettled at the budget)
    // beats the bare "not converged" when it is available.
    if (result.convergence.timeout) {
      result.errors.push_back(result.convergence.timeout->to_error(host_->name()));
    } else {
      result.errors.push_back(
          {core::ErrorCategory::kConvergence, host_->name(),
           result.convergence.oscillating ? "BGP oscillating" : "BGP not converged",
           !result.convergence.oscillating});
    }
  }
  return result;
}

}  // namespace autonet::deploy
