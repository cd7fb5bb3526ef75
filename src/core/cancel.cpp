#include "core/cancel.hpp"

#include <csignal>

#include "obs/recorder.hpp"
#include "obs/registry.hpp"

namespace autonet::core {

namespace {
// Async-signal-safe interrupt flag. The handler only stores; linked
// tokens poll it from cooperative checkpoints.
std::atomic<bool> g_sigint{false};
std::atomic<bool> g_handler_installed{false};

void sigint_handler(int) { g_sigint.store(true, std::memory_order_relaxed); }
}  // namespace

void CancellationToken::request_cancel(std::string reason) {
  std::lock_guard lock(mutex_);
  if (cancelled_.load(std::memory_order_relaxed)) return;  // first wins
  reason_ = std::move(reason);
  cancelled_.store(true, std::memory_order_release);
}

bool CancellationToken::cancelled() const {
  if (cancelled_.load(std::memory_order_acquire)) return true;
  return sigint_linked_.load(std::memory_order_relaxed) &&
         g_sigint.load(std::memory_order_relaxed);
}

std::string CancellationToken::reason() const {
  {
    std::lock_guard lock(mutex_);
    if (!reason_.empty()) return reason_;
  }
  if (sigint_linked_.load(std::memory_order_relaxed) &&
      g_sigint.load(std::memory_order_relaxed)) {
    return "user interrupt (SIGINT)";
  }
  return "";
}

void CancellationToken::link_sigint() {
  if (!g_handler_installed.exchange(true)) {
    std::signal(SIGINT, sigint_handler);
  }
  sigint_linked_.store(true, std::memory_order_relaxed);
}

bool CancellationToken::sigint_received() {
  return g_sigint.load(std::memory_order_relaxed);
}

void CancellationToken::reset_sigint() {
  g_sigint.store(false, std::memory_order_relaxed);
}

Deadline Deadline::after_ms(std::uint64_t budget_ms) {
  Deadline d;
  d.armed_ = true;
  d.start_us_ = obs::Registry::current().peek_us();
  d.budget_us_ = budget_ms * 1000;
  return d;
}

std::uint64_t Deadline::elapsed_us() const {
  if (!armed_) return 0;
  const std::uint64_t now = obs::Registry::current().peek_us();
  return now > start_us_ ? now - start_us_ : 0;
}

std::uint64_t Deadline::remaining_us() const {
  if (!armed_) return UINT64_MAX;
  const std::uint64_t elapsed = elapsed_us();
  return elapsed >= budget_us_ ? 0 : budget_us_ - elapsed;
}

int Deadline::clamp_delay_ms(int delay_ms) const {
  if (!armed_ || delay_ms <= 0) return delay_ms;
  const std::uint64_t remaining_ms = remaining_us() / 1000;
  if (static_cast<std::uint64_t>(delay_ms) <= remaining_ms) return delay_ms;
  return static_cast<int>(remaining_ms);
}

void RunControl::checkpoint(std::string_view where) {
  if (trip_hook && trip_hook(where)) {
    token.request_cancel("chaos trip at " + std::string(where));
  }
  if (token.cancelled()) {
    obs::Registry::current().counter("cancel.observed").inc();
    obs::record("cancel", obs::Severity::kWarning, "observed",
                {{"where", std::string(where)}});
    throw Cancelled(std::string(where), token.reason());
  }
  if (deadline.expired()) {
    obs::Registry::current().counter("deadline.observed").inc();
    obs::record("cancel", obs::Severity::kWarning, "deadline",
                {{"where", std::string(where)}});
    throw DeadlineExceeded(std::string(where), deadline.budget_us(),
                           deadline.elapsed_us());
  }
}

}  // namespace autonet::core
