// Crash-consistent workflow checkpointing. A CheckpointStore is a
// directory holding one content-hashed artifact per completed pipeline
// phase plus a manifest describing what is durable; every write goes
// through write-temp + fsync + atomic-rename, so a kill at any byte
// leaves either the previous or the next consistent state — never a torn
// one. Workflow::checkpoint_to() records phases as they finish and
// restores the longest completed prefix on a later run, so a killed
// pipeline resumes at the last finished phase, and a resumed run's
// artifacts and metrics are byte-identical to an uninterrupted one
// (virtual-clock registry discipline, see experiment::CampaignRunner).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "anm/anm.hpp"
#include "graph/graph.hpp"
#include "nidb/value.hpp"
#include "obs/event.hpp"

namespace autonet::core {

class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writes `content` to `path` crash-consistently: a temp file in the
/// same directory is written, flushed with fsync, then renamed over the
/// target (and the directory entry is fsynced). Throws CheckpointError
/// on I/O failure. Shared by the checkpoint store and the experiment
/// journal's recovery-critical writes.
void write_file_atomic(const std::string& path, std::string_view content);

/// Appends `line` + '\n' to `path` with O_APPEND + fsync (torn tails are
/// possible on a kill mid-append, never interleaved or reordered ones).
void append_line_durable(const std::string& path, std::string_view line);

class CheckpointStore {
 public:
  struct PhaseRecord {
    std::string artifact;   // file name inside the directory
    std::uint64_t hash = 0; // fnv1a of the artifact content
    double ms = 0;          // the phase's span duration (restored timings)
    /// Flight-recorder event slice for the phase ("<phase>.events.jsonl";
    /// empty name = recorded before events existed). Replayed on restore
    /// so a resumed run's run report is byte-identical to an
    /// uninterrupted one.
    std::string events_file;
    std::uint64_t events_hash = 0;
  };

  /// Opens (creating the directory if needed) and loads the manifest.
  /// A missing or torn manifest is an empty checkpoint.
  explicit CheckpointStore(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// True when the manifest records `phase` and its artifact is intact
  /// (present with a matching content hash).
  [[nodiscard]] bool has_phase(std::string_view phase) const;
  /// The artifact content for a completed phase; throws CheckpointError
  /// when absent or corrupt.
  [[nodiscard]] std::string artifact(std::string_view phase) const;
  [[nodiscard]] double phase_ms(std::string_view phase) const;
  /// Phase names present in the manifest (manifest order).
  [[nodiscard]] std::vector<std::string> phases() const;

  /// Records a completed phase: writes the artifact atomically, then the
  /// updated manifest atomically — a crash between the two leaves the
  /// phase unrecorded (and re-run on resume), never half-recorded.
  /// Increments the "ckpt.write" obs counter and emits a "ckpt" flight
  /// event. When `events` is set, the phase's flight-recorder slice is
  /// persisted alongside the artifact as "<phase>.events.jsonl".
  void record_phase(const std::string& phase, const std::string& artifact_file,
                    const std::string& content, double ms,
                    const std::optional<std::string>& events = std::nullopt);

  /// True when `phase` has an intact persisted event slice.
  [[nodiscard]] bool has_events(std::string_view phase) const;
  /// The persisted event-slice JSONL for a phase; throws CheckpointError
  /// when absent or corrupt.
  [[nodiscard]] std::string events(std::string_view phase) const;

  /// Free-form metadata (options hash, input hash, CLI options...),
  /// persisted in the manifest.
  void set_meta(const std::string& key, std::string value);
  [[nodiscard]] std::string meta(const std::string& key) const;

  /// Removes the named phases in one manifest rewrite (absent names are
  /// ignored). Workflow uses this to drop downstream records the moment
  /// an upstream phase re-executes — their inputs just changed.
  void invalidate(const std::vector<std::string>& phases);

  /// Drops all recorded phases and metadata (input/options changed: the
  /// checkpoint no longer describes this run). Artifact files are
  /// removed best-effort; the manifest rewrite is what invalidates them.
  void discard();

 private:
  void load_manifest();
  void write_manifest();

  std::string dir_;
  std::map<std::string, PhaseRecord> phases_;
  std::vector<std::string> order_;
  std::map<std::string, std::string> meta_;
};

// --- Artifact (de)serialization -------------------------------------------
// Lossless JSON encodings for the pipeline states a checkpoint snapshots.
// Attribute values are type-tagged ({"t":"int","v":5}); doubles round-trip
// through %.17g strings so restored graphs compare equal byte-for-byte.

[[nodiscard]] nidb::Value graph_to_value(const graph::Graph& g);
[[nodiscard]] graph::Graph graph_from_value(const nidb::Value& v);

/// Serializes every overlay (nodes, edges, attrs, overlay-level data) in
/// creation order.
[[nodiscard]] nidb::Value anm_to_value(const anm::AbstractNetworkModel& anm);
/// Restores overlays into `anm` (which may already hold the default
/// 'input'/'phy' overlays; their contents are replaced).
void anm_from_value(const nidb::Value& v, anm::AbstractNetworkModel& anm);

/// Parses one serialized flight-recorder event (the object form
/// obs::event_to_json emits) out of a JSON value.
[[nodiscard]] obs::RecorderEvent event_from_value(const nidb::Value& v);

/// Parses flight-recorder events back out of obs::events_to_jsonl text
/// (checkpoint event slices, run-report timelines). Torn or malformed
/// lines throw CheckpointError — a corrupt slice must degrade to fresh
/// re-execution, not to a silently shorter timeline.
[[nodiscard]] std::vector<obs::RecorderEvent> events_from_jsonl(
    const std::string& text);

}  // namespace autonet::core
