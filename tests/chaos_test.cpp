// The chaos-resume harness: deterministically kill the pipeline at every
// phase and sub-phase boundary (via RunControl::trip_hook), resume from
// the crash-consistent checkpoint, and demand final state byte-identical
// to an uninterrupted run — the killed prefix restores, only unfinished
// phases re-execute (verified through the ckpt.* obs counters), and a
// whole campaign interrupted over and over converges to the exact
// aggregate an undisturbed campaign produces.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/checkpoint.hpp"
#include "core/hash.hpp"
#include "core/workflow.hpp"
#include "experiment/aggregate.hpp"
#include "experiment/campaign.hpp"
#include "experiment/journal.hpp"
#include "experiment/runner.hpp"
#include "obs/registry.hpp"
#include "topology/builtin.hpp"

namespace {

using namespace autonet;
namespace fs = std::filesystem;

constexpr const char* kPipeline[] = {"load",   "design", "compile", "render",
                                     "lint",   "deploy", "measure"};

std::uint64_t counter_value(obs::Registry& registry, const std::string& name) {
  for (const auto& [key, value] : registry.counter_values()) {
    if (key == name) return value;
  }
  return 0;
}

std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir.string();
}

/// Everything the pipeline produces, serialized for byte comparison.
struct FinalState {
  std::string nidb_json;
  std::vector<std::pair<std::string, std::string>> configs;
  std::vector<std::string> booted;
  int transfer_attempts = 0;
  int boot_attempts = 0;
  int backoff_ms = 0;
  bool converged = false;
  int convergence_rounds = 0;
  std::string measure_report;
  std::map<std::string, double> timings;
};

FinalState capture(core::Workflow& wf) {
  FinalState state;
  state.nidb_json = wf.nidb().to_json(true);
  for (const auto& [path, content] : wf.configs()) {
    state.configs.emplace_back(path, content);
  }
  state.booted = wf.deploy_result().booted;
  state.transfer_attempts = wf.deploy_result().transfer_attempts;
  state.boot_attempts = wf.deploy_result().boot_attempts;
  state.backoff_ms = wf.deploy_result().backoff_ms;
  state.converged = wf.deploy_result().convergence.converged;
  state.convergence_rounds = wf.deploy_result().convergence.rounds;
  state.measure_report = wf.measure_report().to_string();
  state.timings = wf.timings().ms;
  return state;
}

void expect_identical(const FinalState& got, const FinalState& want,
                      const std::string& label) {
  EXPECT_EQ(got.nidb_json, want.nidb_json) << label;
  EXPECT_EQ(got.configs, want.configs) << label;
  EXPECT_EQ(got.booted, want.booted) << label;
  EXPECT_EQ(got.transfer_attempts, want.transfer_attempts) << label;
  EXPECT_EQ(got.boot_attempts, want.boot_attempts) << label;
  EXPECT_EQ(got.backoff_ms, want.backoff_ms) << label;
  EXPECT_EQ(got.converged, want.converged) << label;
  EXPECT_EQ(got.convergence_rounds, want.convergence_rounds) << label;
  EXPECT_EQ(got.measure_report, want.measure_report) << label;
  EXPECT_EQ(got.timings, want.timings) << label;
}

/// The uninterrupted reference run (no checkpointing, no supervision).
FinalState reference_state() {
  obs::Registry registry(std::make_unique<obs::VirtualClock>());
  obs::RegistryScope scope(registry);
  core::Workflow wf;
  wf.use_telemetry(&registry);
  wf.run(topology::figure5());
  wf.measure();
  return capture(wf);
}

/// Runs the pipeline with a chaos trip at `where`; returns true when the
/// trip fired (some boundaries are unreachable when earlier phases were
/// restored).
bool run_until_trip(const std::string& dir, const std::string& where) {
  obs::Registry registry(std::make_unique<obs::VirtualClock>());
  obs::RegistryScope scope(registry);
  core::RunControl control;
  control.trip_hook = [&where](std::string_view at) { return at == where; };
  core::Workflow wf;
  wf.use_telemetry(&registry);
  wf.use_control(&control);
  wf.checkpoint_to(dir);
  try {
    wf.run(topology::figure5());
    wf.measure();
  } catch (const core::Cancelled& e) {
    EXPECT_EQ(e.where(), where);
    return true;
  }
  return false;
}

// --- Kill at every phase boundary -----------------------------------------

TEST(ChaosResume, KillAtEveryPhaseBoundaryThenResumeByteIdentical) {
  const FinalState reference = reference_state();

  for (std::size_t kill = 0; kill < std::size(kPipeline); ++kill) {
    const std::string phase = kPipeline[kill];
    const std::string dir = temp_dir("autonet_chaos_phase_" + phase);

    // Crash: the trip lands at the phase boundary, before the phase ran.
    ASSERT_TRUE(run_until_trip(dir, "phase." + phase)) << phase;

    // Exactly the phases before the kill are durably checkpointed.
    const std::vector<std::string> expect_prefix(kPipeline,
                                                 kPipeline + kill);
    EXPECT_EQ(core::CheckpointStore(dir).phases(), expect_prefix) << phase;

    // Resume: restore the prefix, execute only the unfinished suffix.
    obs::Registry registry(std::make_unique<obs::VirtualClock>());
    obs::RegistryScope scope(registry);
    core::Workflow wf;
    wf.use_telemetry(&registry);
    wf.checkpoint_to(dir);
    wf.run(topology::figure5());
    wf.measure();

    EXPECT_EQ(wf.restored_phases(), expect_prefix) << phase;
    EXPECT_EQ(counter_value(registry, "ckpt.phase_restored"), kill) << phase;
    EXPECT_EQ(counter_value(registry, "ckpt.resume"), kill > 0 ? 1u : 0u)
        << phase;
    // Only the unfinished phases wrote fresh snapshots.
    EXPECT_EQ(counter_value(registry, "ckpt.write"),
              std::size(kPipeline) - kill)
        << phase;

    expect_identical(capture(wf), reference, "killed at phase." + phase);
    fs::remove_all(dir);
  }
}

// --- Kill at every sub-phase boundary -------------------------------------

TEST(ChaosResume, KillAtEverySubPhaseBoundaryThenResumeByteIdentical) {
  const FinalState reference = reference_state();

  // Enumerate every cooperative boundary the pipeline publishes, in the
  // deterministic order a run visits them.
  std::vector<std::string> boundaries;
  {
    obs::Registry registry(std::make_unique<obs::VirtualClock>());
    obs::RegistryScope scope(registry);
    core::RunControl control;
    control.trip_hook = [&boundaries](std::string_view where) {
      boundaries.emplace_back(where);
      return false;
    };
    core::Workflow wf;
    wf.use_telemetry(&registry);
    wf.use_control(&control);
    wf.run(topology::figure5());
    wf.measure();
  }
  ASSERT_GT(boundaries.size(), 20u);  // phases + rules + devices + rounds

  for (const std::string& where : boundaries) {
    const std::string dir =
        temp_dir("autonet_chaos_sub_" +
                 std::to_string(fnv1a(where) % 1000000));
    ASSERT_TRUE(run_until_trip(dir, where)) << where;

    obs::Registry registry(std::make_unique<obs::VirtualClock>());
    obs::RegistryScope scope(registry);
    core::Workflow wf;
    wf.use_telemetry(&registry);
    wf.checkpoint_to(dir);
    wf.run(topology::figure5());
    wf.measure();
    expect_identical(capture(wf), reference, "killed at " + where);
    fs::remove_all(dir);
  }
}

// --- Double crash: kill the resume too ------------------------------------

TEST(ChaosResume, SurvivesACrashDuringResume) {
  const FinalState reference = reference_state();
  const std::string dir = temp_dir("autonet_chaos_double");

  // First crash early (before render), second crash later (at deploy)
  // during the resumed run, then a clean third run.
  ASSERT_TRUE(run_until_trip(dir, "phase.render"));
  ASSERT_TRUE(run_until_trip(dir, "phase.deploy"));
  EXPECT_EQ(core::CheckpointStore(dir).phases(),
            (std::vector<std::string>{"load", "design", "compile", "render",
                                      "lint"}));

  obs::Registry registry(std::make_unique<obs::VirtualClock>());
  obs::RegistryScope scope(registry);
  core::Workflow wf;
  wf.use_telemetry(&registry);
  wf.checkpoint_to(dir);
  wf.run(topology::figure5());
  wf.measure();
  EXPECT_EQ(wf.restored_phases(),
            (std::vector<std::string>{"load", "design", "compile", "render",
                                      "lint"}));
  expect_identical(capture(wf), reference, "double crash");
  fs::remove_all(dir);
}

// --- Checkpoint validity: changed input or options voids the store --------

TEST(ChaosResume, ChangedInputDiscardsTheCheckpoint) {
  const std::string dir = temp_dir("autonet_chaos_input_change");
  ASSERT_TRUE(run_until_trip(dir, "phase.deploy"));
  ASSERT_FALSE(core::CheckpointStore(dir).phases().empty());

  // A different topology must not restore the figure5 prefix.
  obs::Registry registry(std::make_unique<obs::VirtualClock>());
  obs::RegistryScope scope(registry);
  core::Workflow wf;
  wf.use_telemetry(&registry);
  wf.checkpoint_to(dir);
  wf.run(topology::small_internet());
  EXPECT_TRUE(wf.restored_phases().empty());
  EXPECT_EQ(counter_value(registry, "ckpt.resume"), 0u);
  fs::remove_all(dir);
}

TEST(ChaosResume, ChangedOptionsDiscardTheCheckpoint) {
  const std::string dir = temp_dir("autonet_chaos_options_change");
  ASSERT_TRUE(run_until_trip(dir, "phase.deploy"));

  obs::Registry registry(std::make_unique<obs::VirtualClock>());
  obs::RegistryScope scope(registry);
  core::WorkflowOptions options;
  options.ibgp = "rr-auto";  // the checkpoint was recorded under "mesh"
  core::Workflow wf(options);
  wf.use_telemetry(&registry);
  wf.checkpoint_to(dir);
  wf.run(topology::figure5());
  EXPECT_TRUE(wf.restored_phases().empty());
  fs::remove_all(dir);
}

// --- Corrupt checkpoint artifacts fall back to fresh execution ------------

TEST(ChaosResume, CorruptMidPrefixArtifactReexecutesFromThere) {
  const FinalState reference = reference_state();
  const std::string dir = temp_dir("autonet_chaos_corrupt");
  ASSERT_TRUE(run_until_trip(dir, "phase.deploy"));

  {
    // Tear the design artifact: load stays restorable, design does not,
    // and the stale compile/render/lint records must not be trusted.
    std::ofstream file(dir + "/design.json", std::ios::binary);
    file << "{\"torn\":";
  }

  obs::Registry registry(std::make_unique<obs::VirtualClock>());
  obs::RegistryScope scope(registry);
  core::Workflow wf;
  wf.use_telemetry(&registry);
  wf.checkpoint_to(dir);
  wf.run(topology::figure5());
  wf.measure();
  EXPECT_EQ(wf.restored_phases(), (std::vector<std::string>{"load"}));
  expect_identical(capture(wf), reference, "corrupt design artifact");
  fs::remove_all(dir);
}

// --- Campaign-scale chaos: a 3-axis matrix killed over and over -----------

TEST(ChaosCampaign, RepeatedKillsConvergeToTheUndisturbedAggregate) {
  const experiment::CampaignSpec spec = experiment::parse_campaign(
      "campaign chaos\n"
      "topology figure5\n"
      "repetitions 1\n"
      "seed 13\n"
      "jobs 1\n"
      "axis ibgp mesh rr-auto\n"
      "axis dns on off\n"
      "axis backoff_base_ms range 50 100 step 50\n"
      "probe reachability\n");

  // The undisturbed reference campaign.
  experiment::CampaignRunner reference(spec);
  const experiment::CampaignResult undisturbed = reference.run();
  ASSERT_TRUE(undisturbed.all_ok());
  ASSERT_EQ(undisturbed.results.size(), 8u);
  const std::string reference_csv =
      experiment::to_csv(experiment::aggregate(undisturbed.results));

  const std::string out = temp_dir("autonet_chaos_campaign");
  fs::create_directories(out);
  experiment::RunnerOptions opts;
  opts.journal_path = out + "/journal.jsonl";
  opts.checkpoint_dir = out + "/checkpoints";

  // Chaos driver: every invocation is killed at its second fresh phase
  // boundary (so each makes at least one phase of progress), until one
  // invocation finishes the matrix. Deterministic: jobs=1 and the trip
  // counts boundaries in execution order.
  experiment::CampaignResult final_result;
  std::size_t interruptions = 0;
  std::size_t total_resumed = 0;
  for (int attempt = 0; attempt < 200; ++attempt) {
    core::RunControl control;
    std::size_t phase_boundaries = 0;
    control.trip_hook = [&phase_boundaries](std::string_view where) {
      if (where.substr(0, 6) == "phase.") ++phase_boundaries;
      return phase_boundaries == 2;
    };
    experiment::RunnerOptions chaos_opts = opts;
    chaos_opts.control = &control;
    experiment::CampaignRunner runner(spec, chaos_opts);
    final_result = runner.run();
    total_resumed += final_result.resumed;
    if (!final_result.interrupted) break;
    ++interruptions;
  }

  ASSERT_FALSE(final_result.interrupted) << "chaos loop did not converge";
  EXPECT_GT(interruptions, 5u);   // the chaos actually bit, repeatedly
  EXPECT_GT(total_resumed, 0u);   // and mid-run checkpoints were resumed
  EXPECT_TRUE(final_result.all_ok());
  EXPECT_EQ(final_result.results.size(), 8u);

  // Byte-identical measurement exports: per-run result lines and the
  // campaign aggregate both match the undisturbed campaign exactly.
  for (std::size_t i = 0; i < undisturbed.results.size(); ++i) {
    EXPECT_EQ(final_result.results[i].to_json(),
              undisturbed.results[i].to_json())
        << undisturbed.results[i].id;
  }
  EXPECT_EQ(experiment::to_csv(experiment::aggregate(final_result.results)),
            reference_csv);

  // Every checkpoint pointer was spent by a completed result.
  experiment::Journal journal(opts.journal_path);
  EXPECT_TRUE(journal.load_checkpoints().empty());
  fs::remove_all(out);
}

}  // namespace
