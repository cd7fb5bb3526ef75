// The campaign journal: one JSON line per completed run, appended
// durably as results land, so a campaign killed mid-matrix resumes by
// replaying the journal and executing only the missing runs — the same
// philosophy as the deployer's retries, applied at campaign scope. It is
// a core::Journal: the first line names the campaign (claim()), and a
// journal that names another campaign, or none, is started over, so an
// edited spec never resumes the old spec's results. A truncated final
// line (the kill landed mid-write) is skipped on load. Besides results,
// the journal records checkpoint pointers ({"ckpt":...} lines) for runs
// interrupted mid-pipeline, so a resumed campaign restarts those runs
// from their last completed phase.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"

namespace autonet::experiment {

/// Outcome of one run of the matrix. Metrics are scalar name/value
/// pairs, kept sorted by name for deterministic exports.
struct RunResult {
  std::string id;
  std::size_t index = 0;
  int repetition = 0;
  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, std::string>> axis_values;
  bool ok = false;
  std::string error;
  std::vector<std::pair<std::string, double>> metrics;
  /// Path of the run's run_report.json, when report writing was on.
  /// Deliberately the only provenance field: whether a run resumed is
  /// derived from the journal's structure (see Journal::resumed_ids) so
  /// a resumed run's result line stays byte-identical to a fresh one.
  std::string report_path;

  [[nodiscard]] double metric(const std::string& name, double fallback = 0) const;
  /// One JSON object (single line, sorted keys).
  [[nodiscard]] std::string to_json() const;
  /// Parses a journal line; throws std::runtime_error on malformed JSON.
  [[nodiscard]] static RunResult from_json(const std::string& line);
};

/// A journal record for a run that was interrupted (cancelled, deadline
/// expired, process killed) after some phases checkpointed: where the
/// checkpoint directory is and how far the pipeline got. Serialized as a
/// {"ckpt": {...}} line, which result loaders skip (no "id" key).
struct CheckpointRecord {
  std::string run_id;
  /// The Workflow::checkpoint_to() directory for this run.
  std::string dir;
  /// Why the run stopped ("cancelled", "deadline", an error message).
  std::string reason;
  /// Phases durably completed when the run stopped, pipeline order.
  std::vector<std::string> phases;

  [[nodiscard]] std::string to_json() const;
  /// Parses a {"ckpt": ...} line; nullopt when the line is a result (or
  /// anything else, such as a pointer without a run id); throws
  /// std::runtime_error on malformed JSON.
  [[nodiscard]] static std::optional<CheckpointRecord> from_json(
      const std::string& line);
};

struct CampaignSpec;

class Journal {
 public:
  /// An empty path disables persistence (in-memory campaign).
  explicit Journal(std::string path) : journal_(std::move(path)) {}

  /// Binds the journal to `spec`: its first line becomes the campaign's
  /// identity — every spec field that decides a run's result (name,
  /// topology, repetitions, seed, axes, options, incident, probes; not
  /// jobs). A journal that starts with anything else is started over.
  void claim(const CampaignSpec& spec);

  /// Loads completed results keyed by run id (latest wins). Malformed
  /// lines (a mid-write kill tears the last one), checkpoint records and
  /// the identity line are ignored; a missing file is an empty journal.
  [[nodiscard]] std::map<std::string, RunResult> load() const;

  /// Loads checkpoint records keyed by run id (latest wins). Runs that
  /// later completed — an ok result line follows the ckpt line — are
  /// excluded: their checkpoints are spent.
  [[nodiscard]] std::map<std::string, CheckpointRecord> load_checkpoints() const;

  /// Run ids that were interrupted mid-pipeline and later completed: a
  /// {"ckpt":...} line superseded by an ok result. Resume provenance is
  /// derived from the journal's shape, never stored on the result, so
  /// resumed and fresh result lines stay byte-identical.
  [[nodiscard]] std::vector<std::string> resumed_ids() const;

  /// Appends one result durably — O_APPEND + fsync, so a crash can tear
  /// at most the final line, never reorder or interleave (thread-safe;
  /// workers call this as runs finish).
  void append(const RunResult& result);

  /// Appends a checkpoint pointer for an interrupted run (same
  /// durability).
  void append_checkpoint(const CheckpointRecord& record);

  [[nodiscard]] const std::string& path() const { return journal_.path(); }

 private:
  /// What load(), load_checkpoints() and resumed_ids() return, from one
  /// pass over the records.
  struct Contents {
    std::map<std::string, RunResult> results;
    std::map<std::string, CheckpointRecord> checkpoints;
    std::vector<std::string> resumed;
  };
  [[nodiscard]] Contents read() const;

  core::Journal journal_;
};

}  // namespace autonet::experiment
