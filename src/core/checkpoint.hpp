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
#include <mutex>
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
/// on I/O failure, and before writing anything when `path` exists and is
/// not a regular file (a device, FIFO or directory). Shared by the
/// checkpoint store and the experiment journal's recovery-critical
/// writes.
void write_file_atomic(const std::string& path, std::string_view content);

/// Appends `line` + '\n' to `path` with O_APPEND + fsync (torn tails are
/// possible on a kill mid-append, never interleaved or reordered ones).
void append_line_durable(const std::string& path, std::string_view line);

/// An append-only JSONL journal with resume: experiment campaigns and
/// fuzz campaigns keep their durable state in one. The first line names
/// the campaign that owns the journal (an object with a "campaign" key);
/// every later line is one record, appended with append_line_durable,
/// so a kill tears at most the last line. An empty path disables
/// persistence.
class Journal {
 public:
  explicit Journal(std::string path) : path_(std::move(path)) {}

  /// Makes `identity` the journal's first line. A journal that starts
  /// with anything else — another campaign's identity, a record written
  /// before journals named their campaign, a torn line — is started
  /// over atomically, holding only `identity`.
  void claim(std::string_view identity);

  /// The records in file order, parsed. The identity line and every
  /// torn or malformed line are skipped; a missing file has none.
  [[nodiscard]] std::vector<nidb::Value> records() const;

  /// Appends one record line durably (thread-safe).
  void append(std::string_view line);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::mutex mutex_;
};

/// The run report kept inside a checkpoint directory (autonet run
/// --checkpoint writes it); CheckpointStore::invalidate() removes it.
inline constexpr const char* kRunReportFile = "run_report.json";

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

  /// The artifact content when the manifest records `phase` and the file
  /// is present with a matching content hash; nullopt otherwise. One
  /// read of the file both verifies and returns it.
  [[nodiscard]] std::optional<std::string> read_artifact(std::string_view phase) const;
  /// True when read_artifact(phase) would return content.
  [[nodiscard]] bool has_phase(std::string_view phase) const;
  /// read_artifact(phase), but throws CheckpointError when absent or
  /// corrupt.
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

  /// The phase's persisted event-slice JSONL when it is recorded and
  /// intact; nullopt otherwise (one read, as read_artifact).
  [[nodiscard]] std::optional<std::string> read_events(std::string_view phase) const;

  /// Free-form metadata (options hash, input hash, CLI options...),
  /// persisted in the manifest. Merges `entries` in one manifest
  /// rewrite, and rewrites nothing when every value is already set.
  void set_meta(const std::map<std::string, std::string>& entries);
  [[nodiscard]] std::string meta(const std::string& key) const;

  /// Removes the named phases in one manifest rewrite (absent names are
  /// ignored). Workflow uses this to drop downstream records the moment
  /// an upstream phase re-executes — their inputs just changed — and
  /// every record a run over another input or options cannot use. The
  /// directory's kRunReportFile described the dropped records and is
  /// removed with them.
  void invalidate(const std::vector<std::string>& phases);

 private:
  void load_manifest();
  void write_manifest();
  [[nodiscard]] std::optional<std::string> read_verified(const std::string& file,
                                                         std::uint64_t hash) const;

  std::string dir_;
  std::map<std::string, PhaseRecord> phases_;
  std::vector<std::string> order_;
  std::map<std::string, std::string> meta_;
};

// --- Artifact (de)serialization -------------------------------------------
// Lossless JSON encodings for the pipeline states a checkpoint snapshots.
// Attribute values are type-tagged ({"t": "int", "v": 5}); doubles
// round-trip through %.17g strings so restored graphs compare equal
// byte-for-byte. The writers stream compact JSON straight into a string,
// building no intermediate value tree; the readers take the parse_json
// tree of that text.

/// A graph as one JSON object: its name, directedness, graph data, and
/// its nodes and edges in id order, each with its attributes.
[[nodiscard]] std::string graph_to_json(const graph::Graph& g);
[[nodiscard]] graph::Graph graph_from_value(const nidb::Value& v);

/// Serializes every overlay (nodes, edges, attrs, overlay-level data) in
/// creation order, as {"overlays": [graph_to_json(overlay), ...]}.
[[nodiscard]] std::string anm_to_json(const anm::AbstractNetworkModel& anm);
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
