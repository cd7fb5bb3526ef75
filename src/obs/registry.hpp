// The process-wide telemetry registry: named counters/gauges/histograms,
// completed-span trace events and the flight recorder, all behind one
// thread-safe object. Library code reaches it through
// Registry::current() — a thread-local override (set by RegistryScope)
// falling back to Registry::global() — so instrumentation never needs a
// registry parameter threaded through every call, yet tests can capture
// a pipeline's telemetry into an isolated registry with a virtual clock
// and golden-compare the exports.
//
// Disabled mode (set_enabled(false)) drops span and flight-recorder
// recording while leaving metric objects valid; hot paths keep only a
// relaxed atomic increment. Defining AUTONET_OBS_DISABLED compiles
// recording out entirely (kCompiledIn below folds every branch to the
// no-op side).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/clock.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"

namespace autonet::obs {

class FlightRecorder;

#ifdef AUTONET_OBS_DISABLED
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

/// A completed span (RAII timer), as recorded by obs::Span.
struct TraceEvent {
  std::string name;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  /// Nesting depth at the time the span opened (0 = top level).
  int depth = 0;
  Fields args;
};

class Registry {
 public:
  /// Real (steady_clock) time.
  Registry();
  /// Custom time source — pass a VirtualClock for deterministic exports.
  explicit Registry(std::unique_ptr<Clock> clock);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  ~Registry();

  /// True while `registry` points at a live Registry. Lets an RAII
  /// obs::Span that escaped its RegistryScope detect that its registry
  /// was destroyed instead of dereferencing a dangling pointer.
  [[nodiscard]] static bool alive(const Registry* registry);

  /// The process-wide default registry (real clock).
  static Registry& global();
  /// The active registry: the innermost RegistryScope on this thread,
  /// else global().
  static Registry& current();

  /// Runtime switch for span/event recording. Metric objects stay live
  /// either way; compiled-out builds ignore this entirely.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return kCompiledIn && enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t now_us() { return clock_->now_us(); }
  /// Non-advancing clock read; flight-recorder event timestamps use
  /// this so recording never perturbs span durations (see Clock).
  [[nodiscard]] std::uint64_t peek_us() { return clock_->peek_us(); }
  /// Advances a virtual clock (no-op returning false under a real one).
  /// The deployer calls this with its computed backoff delays so that,
  /// under a VirtualClock, retry events are spaced by exactly the
  /// backoff the logs claim — timestamps become a pure function of the
  /// executed code path, with no wall-clock leakage.
  bool advance_clock_us(std::uint64_t us) { return clock_->advance_us(us); }

  // --- Metrics (references are stable for the registry's lifetime) ------
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // --- Events -----------------------------------------------------------
  /// Appends a completed span. Normally called by obs::Span.
  void record_span(TraceEvent event);
  /// The registry's flight recorder (always present; gate writes on
  /// enabled()). Most callers should use the obs::record() helper in
  /// obs/recorder.hpp, which also stamps phase-relative timestamps.
  [[nodiscard]] FlightRecorder& recorder() { return *recorder_; }

  // --- Snapshots (copies; safe to export while instrumentation runs) ----
  struct HistogramSnapshot {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// Non-cumulative per-bucket counts; index Histogram::kBuckets is
    /// the overflow (+Inf) bucket.
    std::vector<std::uint64_t> buckets;
  };
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counter_values()
      const;
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> gauge_values()
      const;
  [[nodiscard]] std::vector<HistogramSnapshot> histogram_values() const;
  [[nodiscard]] std::vector<TraceEvent> trace_events() const;
  /// Spans discarded once the buffer hit kMaxEvents.
  [[nodiscard]] std::uint64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Clears all metrics and buffered spans (tests).
  void reset();

  /// Name-prefixing view: scope("emulation").counter("spf_runs") is
  /// counter("emulation.spf_runs").
  class ScopeView {
   public:
    ScopeView(Registry& registry, std::string prefix)
        : registry_(&registry), prefix_(std::move(prefix)) {}
    Counter& counter(std::string_view name) {
      return registry_->counter(prefix_ + "." + std::string(name));
    }
    Gauge& gauge(std::string_view name) {
      return registry_->gauge(prefix_ + "." + std::string(name));
    }
    Histogram& histogram(std::string_view name) {
      return registry_->histogram(prefix_ + "." + std::string(name));
    }
    [[nodiscard]] Registry& registry() { return *registry_; }

   private:
    Registry* registry_;
    std::string prefix_;
  };
  [[nodiscard]] ScopeView scope(std::string prefix) {
    return ScopeView(*this, std::move(prefix));
  }

  /// Span buffer cap; beyond it spans are counted in dropped_events()
  /// instead of stored (keeps long benchmark loops from accumulating
  /// unbounded trace memory).
  static constexpr std::size_t kMaxEvents = 1 << 16;

 private:
  std::unique_ptr<Clock> clock_;
  std::unique_ptr<FlightRecorder> recorder_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> dropped_{0};

  mutable std::mutex mutex_;
  // node-based maps: element references stay valid across inserts.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<TraceEvent> spans_;
};

/// RAII thread-local registry override: while alive, Registry::current()
/// on this thread returns the given registry.
class RegistryScope {
 public:
  explicit RegistryScope(Registry& registry);
  ~RegistryScope();
  RegistryScope(const RegistryScope&) = delete;
  RegistryScope& operator=(const RegistryScope&) = delete;

 private:
  Registry* previous_;
};

}  // namespace autonet::obs
