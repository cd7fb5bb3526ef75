// Shared event vocabulary for the telemetry layer: the ordered key/value
// annotation list used by spans and the flight recorder, the
// three-level severity scale, and the flight-recorder event record
// itself. Split out of registry.hpp so the recorder can be included by
// low-level code without pulling in the full registry.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace autonet::obs {

/// Ordered key/value annotations on spans and events.
using Fields = std::vector<std::pair<std::string, std::string>>;

/// Severity of a recorded event. The scale is deliberately small: the
/// recorder is a timeline, not a logger — anything needing more nuance
/// belongs in the event's fields.
enum class Severity : std::uint8_t { kInfo = 0, kWarning = 1, kError = 2 };

[[nodiscard]] constexpr const char* severity_label(Severity s) {
  switch (s) {
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
    case Severity::kInfo: break;
  }
  return "info";
}

[[nodiscard]] constexpr Severity severity_from_label(std::string_view s) {
  if (s == "warning") return Severity::kWarning;
  if (s == "error") return Severity::kError;
  return Severity::kInfo;
}

/// One flight-recorder event. Timestamps are *phase-relative*: while an
/// obs::PhaseScope is open on the recording thread, ts_us is the offset
/// from the phase's start (read through the registry clock's
/// non-advancing peek), which makes a phase's event slice a pure
/// function of the code executed inside it — the property the
/// checkpoint/resume machinery relies on to replay restored phases'
/// events byte-identically. Outside any phase, ts_us is the absolute
/// clock reading and `phase` is empty.
struct RecorderEvent {
  /// Recorder-global sequence number (drain order). Not serialized into
  /// run reports: replayed events get fresh sequence numbers.
  std::uint64_t seq = 0;
  std::uint64_t ts_us = 0;
  /// Event family: "design", "render", "lint", "deploy", "emulation",
  /// "measure", "ckpt", "cancel", "run", ...
  std::string category;
  Severity severity = Severity::kInfo;
  /// The pipeline phase open when the event was recorded ("" = none).
  std::string phase;
  /// What happened ("boot", "bgp.round", rule id, device name, ...).
  std::string name;
  Fields fields;
};

}  // namespace autonet::obs
