// The fuzz campaign driver: generates seed-addressed scenarios, runs
// them through the oracle registry round-robin, shrinks and persists
// violations, and journals every run as one JSONL line. The journal is
// the campaign's durable state: re-running the same campaign over an
// existing journal skips the runs already recorded (crash/^C-resumable),
// and a completed campaign re-run is a byte-for-byte no-op — the
// determinism contract `autonet fuzz --seed 1 --runs 50` is tested
// against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/shrink.hpp"

namespace autonet::fuzz {

struct FuzzOptions {
  /// Campaign seed; run i draws scenario seed mix(seed, i).
  std::uint64_t seed = 1;
  /// Scenario budget (each run = one scenario through one oracle).
  std::size_t runs = 100;
  /// Router cap per generated scenario.
  std::size_t max_nodes = 24;
  /// Restrict to one oracle by name; empty = round-robin over all six.
  std::string oracle;
  /// Wall-clock budget in seconds; 0 = unlimited. Checked between runs:
  /// expiry stops the campaign cleanly (journal intact, resumable).
  std::uint64_t time_budget_s = 0;
  /// Where minimized violations and the journal live.
  std::string corpus_dir = "corpus";
  /// Shrinker budget per violation.
  ShrinkLimits shrink;
};

/// One journal line's worth of outcome.
struct FuzzRunRecord {
  std::size_t run = 0;
  std::uint64_t seed = 0;
  std::string oracle;
  std::string scenario;  // generator summary
  std::string status;    // pass | fail | skip
  std::string detail;
  /// Corpus-relative path of the minimized repro ("" unless fail).
  std::string corpus_path;
};

struct FuzzReport {
  std::size_t executed = 0;
  std::size_t passed = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
  /// Runs satisfied from an existing journal instead of executing.
  std::size_t resumed = 0;
  std::size_t shrink_steps = 0;
  /// Stopped by the time budget before finishing `runs`.
  bool out_of_time = false;
  std::vector<FuzzRunRecord> violations;

  [[nodiscard]] bool clean() const { return failed == 0 && violations.empty(); }
};

/// Runs (or resumes) a campaign. Obs counters in the current registry:
/// fuzz.runs, fuzz.failures, fuzz.shrink_steps, and per-oracle
/// fuzz.<oracle>.runs / fuzz.<oracle>.failures. `control`, when given,
/// is polled between runs so ^C or a deadline interrupts the campaign at
/// a journal-consistent point.
FuzzReport run_fuzz(const FuzzOptions& options,
                    core::RunControl* control = nullptr);

/// Replays one scenario through one oracle (the `--replay` path and the
/// corpus regression test). Journals nothing.
[[nodiscard]] OracleResult replay_scenario(const Scenario& s,
                                           const Oracle& oracle);

}  // namespace autonet::fuzz
