// The flight recorder: an always-on, bounded ring buffer of structured
// RecorderEvents that every pipeline layer emits into — design rule
// decisions, per-device render outcomes, lint verdicts, deploy
// attempts/retries/faults, convergence rounds, measurement probes,
// checkpoint/cancel activity. Unlike --trace (opt-in, unbounded) the
// recorder is cheap enough to leave on: the hot path is a couple of
// relaxed atomics plus a slot write into a per-thread single-producer
// ring segment; no locks, no allocation beyond the event's own strings.
//
// Determinism: each event carries a recorder-global sequence number, so
// drain() returns events in one canonical order regardless of how many
// thread segments they were scattered across. Timestamps come from the
// registry clock's non-advancing peek_us() — recording an event never
// consumes a virtual-clock reading, so instrumenting a code path with
// recorder events does not perturb span durations or any existing
// golden export. While an obs::PhaseScope is open, timestamps are
// phase-relative, which makes a phase's event slice a pure function of
// the code executed inside it (the property checkpoint replay relies
// on; see core/checkpoint).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/event.hpp"

namespace autonet::obs {

class FlightRecorder {
 public:
  /// Slots per thread segment. The ring only ever needs to hold the
  /// events between two drain points (one pipeline phase); overflow
  /// drops the oldest events and counts them in dropped().
  static constexpr std::size_t kDefaultCapacity = 8192;

  explicit FlightRecorder(std::size_t segment_capacity = kDefaultCapacity);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends an event to this thread's segment, assigning it the next
  /// global sequence number (event.seq is overwritten). Lock-free after
  /// the thread's first call; the first call registers a segment under
  /// the recorder mutex.
  void record(RecorderEvent event);

  /// Re-records previously drained events (checkpoint replay). Contents
  /// are preserved verbatim — including timestamps — but each event
  /// gets a fresh sequence number so drain order stays consistent.
  void inject(const std::vector<RecorderEvent>& events);

  /// Consumes every unread event, merged across thread segments into
  /// sequence-number order. Call at quiescent points (phase boundaries,
  /// run end, interruption): producers must not be racing the drain or
  /// a lapped slot can tear.
  [[nodiscard]] std::vector<RecorderEvent> drain();

  /// Total events ever recorded (including later-dropped ones).
  [[nodiscard]] std::uint64_t recorded() const {
    return seq_.load(std::memory_order_relaxed);
  }
  /// Events lost to ring overflow (oldest-first) as observed by drain().
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  // One single-producer ring per recording thread. The producer writes
  // the slot, then publishes with a release store of head; drain reads
  // head with acquire, so slot contents for every index < head are
  // visible. head counts events ever pushed (not wrapped); next_read is
  // consumer-side state guarded by mutex_.
  struct Segment {
    explicit Segment(std::size_t capacity) : slots(capacity) {}
    std::vector<RecorderEvent> slots;
    std::atomic<std::uint64_t> head{0};
    std::uint64_t next_read = 0;
  };

  Segment& segment_for_this_thread();

  const std::size_t capacity_;
  // Distinguishes this recorder in the thread-local segment cache; a
  // plain `this` key could collide with a dead recorder's address.
  const std::uint64_t id_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> dropped_{0};

  mutable std::mutex mutex_;
  std::vector<std::pair<std::thread::id, std::unique_ptr<Segment>>> segments_;
};

/// RAII marker for the currently-executing pipeline phase on this
/// thread. While open, obs::record() stamps events with this phase name
/// and a timestamp relative to the phase's start. Nests (design rules
/// inside the design phase keep the outer phase's frame unless they open
/// their own).
class PhaseScope {
 public:
  explicit PhaseScope(std::string name);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// Innermost open scope on this thread, else nullptr.
  [[nodiscard]] static const PhaseScope* current();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t start_us() const { return start_us_; }

 private:
  std::string name_;
  std::uint64_t start_us_ = 0;
  PhaseScope* previous_ = nullptr;
};

/// Records an event into Registry::current()'s flight recorder: stamps
/// the phase + phase-relative timestamp and enqueues. No-op when the
/// registry is disabled.
void record(std::string category, Severity severity, std::string name,
            Fields fields = {});
inline void record(std::string category, std::string name, Fields fields = {}) {
  record(std::move(category), Severity::kInfo, std::move(name),
         std::move(fields));
}

/// One-line JSON encoding of an event, without the sequence number
/// (replayed events get fresh ones). Fields are emitted in sorted key
/// order so a serialize→parse→serialize round trip is byte-stable.
[[nodiscard]] std::string event_to_json(const RecorderEvent& event);
/// Newline-terminated event_to_json lines.
[[nodiscard]] std::string events_to_jsonl(const std::vector<RecorderEvent>& events);

}  // namespace autonet::obs
