// Cooperative cancellation and deadlines for supervised pipeline
// execution. Long-running phases (design, render, lint, deploy,
// emulation convergence, measure) call RunControl::checkpoint() at phase
// and sub-phase boundaries; when an operator interrupt (SIGINT), an
// explicit request_cancel(), or an expired Deadline is observed there,
// the phase throws a typed core::Cancelled / core::DeadlineExceeded.
// Partial results survive the throw: completed phases keep their
// artifacts (and, with a CheckpointStore attached, are already durable
// on disk), so a later Workflow::resume() restarts at the last finished
// phase instead of re-running hours of work.
//
// Deadlines are virtual-clock aware: time is read through the current
// obs::Registry clock, so a campaign run under a VirtualClock enforces
// (and tests) deadlines deterministically without wall-clock leakage.
// Arming and checking only peek at the clock (Clock::peek_us): a
// deadline that never fires leaves every span duration, and so every
// virtual-clock report, exactly as it is without one.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

namespace autonet::core {

/// Common base for control-flow interrupts (cancellation, deadlines), so
/// supervisors can catch both with one handler while keeping the two
/// causes distinguishable. `where()` names the cooperative checkpoint
/// that observed the interrupt ("phase.deploy", "deploy.boot.r3", ...).
class Interrupted : public std::runtime_error {
 public:
  Interrupted(const std::string& what, std::string where)
      : std::runtime_error(what), where_(std::move(where)) {}
  [[nodiscard]] const std::string& where() const { return where_; }

 private:
  std::string where_;
};

/// Thrown by RunControl::checkpoint() after request_cancel() (or SIGINT
/// with a linked token). The in-flight phase is abandoned; completed
/// phases keep their results.
class Cancelled : public Interrupted {
 public:
  // `where` is passed (not moved) into the base: constructor argument
  // evaluation order is unspecified, so a move here could empty the
  // string before the message concatenation reads it.
  Cancelled(const std::string& where, const std::string& reason)
      : Interrupted("cancelled at " + where + ": " + reason, where),
        reason_(reason) {}
  [[nodiscard]] const std::string& reason() const { return reason_; }

 private:
  std::string reason_;
};

/// Thrown by RunControl::checkpoint() when the run deadline has expired.
class DeadlineExceeded : public Interrupted {
 public:
  // Same evaluation-order hazard as Cancelled: `where` must not be moved
  // into the base while the message expression still reads it.
  DeadlineExceeded(const std::string& where, std::uint64_t budget_us,
                   std::uint64_t elapsed_us)
      : Interrupted("deadline exceeded at " + where + " (" +
                        std::to_string(elapsed_us / 1000) + "ms elapsed, " +
                        std::to_string(budget_us / 1000) + "ms budget)",
                    where),
        budget_us_(budget_us), elapsed_us_(elapsed_us) {}
  [[nodiscard]] std::uint64_t budget_us() const { return budget_us_; }
  [[nodiscard]] std::uint64_t elapsed_us() const { return elapsed_us_; }

 private:
  std::uint64_t budget_us_;
  std::uint64_t elapsed_us_;
};

/// Thread-safe cancel flag. request_cancel() is sticky; a token linked
/// to SIGINT (link_sigint) also observes the process-wide interrupt
/// flag, which the async-signal-safe handler merely stores.
class CancellationToken {
 public:
  void request_cancel(std::string reason = "cancelled");
  [[nodiscard]] bool cancelled() const;
  /// The first request's reason ("user interrupt (SIGINT)" for a linked
  /// signal); empty while not cancelled.
  [[nodiscard]] std::string reason() const;

  /// Installs (once per process) a SIGINT handler that sets a global
  /// flag, and makes this token observe it. Safe to call repeatedly.
  void link_sigint();
  /// True when a SIGINT arrived since the handler was installed.
  [[nodiscard]] static bool sigint_received();
  /// Clears the process-wide SIGINT flag (tests).
  static void reset_sigint();

 private:
  mutable std::mutex mutex_;
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> sigint_linked_{false};
  std::string reason_;
};

/// A time budget measured on the telemetry clock of the current
/// obs::Registry (virtual-clock aware — see file comment). Default
/// constructed deadlines are unarmed and never expire.
class Deadline {
 public:
  Deadline() = default;

  /// Arms a deadline `budget_ms` from now (now = the current registry's
  /// clock, peeked at the call).
  static Deadline after_ms(std::uint64_t budget_ms);

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] std::uint64_t budget_us() const { return budget_us_; }
  /// Microseconds since arming (current registry clock).
  [[nodiscard]] std::uint64_t elapsed_us() const;
  /// Microseconds left; 0 when expired. Unarmed: UINT64_MAX.
  [[nodiscard]] std::uint64_t remaining_us() const;
  [[nodiscard]] bool expired() const { return armed_ && remaining_us() == 0; }

  /// Clamps a backoff delay so a virtual sleep never overshoots the
  /// deadline: min(delay_ms, remaining). Unarmed deadlines pass the
  /// delay through.
  [[nodiscard]] int clamp_delay_ms(int delay_ms) const;

 private:
  bool armed_ = false;
  std::uint64_t start_us_ = 0;
  std::uint64_t budget_us_ = 0;
};

/// The supervision bundle threaded through the pipeline: one token, one
/// optional deadline, and the cooperative checkpoint() the layers call.
/// Non-owning pointers to a RunControl are passed down (WorkflowOptions,
/// DeployOptions, EmulatedNetwork::start) so a single operator interrupt
/// reaches every layer within one sub-phase step.
struct RunControl {
  CancellationToken token;
  Deadline deadline;
  /// Chaos hook (tests): called with every checkpoint's `where` before
  /// the cancel/deadline tests; returning true requests cancellation
  /// there. This is how the chaos-resume harness kills a pipeline at an
  /// exact, deterministic boundary.
  std::function<bool(std::string_view where)> trip_hook;

  /// Cooperative checkpoint: throws Cancelled / DeadlineExceeded when
  /// the token is cancelled or the deadline expired, incrementing the
  /// "cancel.observed" / "deadline.observed" counters in the current
  /// obs registry. Cheap when neither has fired.
  void checkpoint(std::string_view where);

  /// Non-throwing poll (loop guards that prefer structured errors).
  [[nodiscard]] bool should_stop() const {
    return token.cancelled() || deadline.expired();
  }
};

/// Null-safe helper: checkpoint(control, where) for optional controls.
inline void checkpoint(RunControl* control, std::string_view where) {
  if (control != nullptr) control->checkpoint(where);
}

}  // namespace autonet::core
