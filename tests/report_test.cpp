// Flight recorder + run report tests: ring-buffer semantics (sequence
// order, overflow accounting, replay injection), phase-relative
// timestamps, JSONL round-trip stability, span lifetime guards, report
// determinism (same seed -> byte-identical run_report.json, resumed ==
// uninterrupted, post-mortem removed once a resume records a phase),
// report diffing, and the journal's derived resume provenance.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cancel.hpp"
#include "core/checkpoint.hpp"
#include "core/workflow.hpp"
#include "experiment/journal.hpp"
#include "nidb/value.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "report/run_report.hpp"
#include "topology/builtin.hpp"

namespace {

using namespace autonet;
namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

obs::RecorderEvent make_event(const std::string& name) {
  obs::RecorderEvent event;
  event.category = "test";
  event.name = name;
  return event;
}

// --- FlightRecorder ring semantics ----------------------------------------

TEST(Recorder, DrainReturnsSequenceOrderAndClears) {
  obs::FlightRecorder recorder;
  for (int i = 0; i < 5; ++i) {
    recorder.record(make_event("e" + std::to_string(i)));
  }
  const auto events = recorder.drain();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].name, "e" + std::to_string(i));
    if (i > 0) EXPECT_GT(events[i].seq, events[i - 1].seq);
  }
  EXPECT_TRUE(recorder.drain().empty());
  EXPECT_EQ(recorder.recorded(), 5u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(Recorder, OverflowDropsOldestAndCountsThem) {
  obs::FlightRecorder recorder(/*segment_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    recorder.record(make_event("e" + std::to_string(i)));
  }
  const auto events = recorder.drain();
  ASSERT_EQ(events.size(), 4u);
  // The ring keeps the newest events; the oldest six were lapped.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].name, "e" + std::to_string(6 + i));
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
}

TEST(Recorder, InjectPreservesContentsWithFreshSequenceNumbers) {
  obs::FlightRecorder source;
  obs::RecorderEvent event;
  event.ts_us = 42;
  event.category = "deploy";
  event.severity = obs::Severity::kWarning;
  event.phase = "deploy";
  event.name = "boot";
  event.fields = {{"machine", "r1"}, {"attempt", "2"}};
  source.record(event);
  source.record(make_event("second"));
  const auto drained = source.drain();
  ASSERT_EQ(drained.size(), 2u);

  obs::FlightRecorder target;
  target.record(make_event("own"));
  target.inject(drained);
  const auto out = target.drain();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].name, "own");
  // Contents — including timestamps — survive verbatim; only seq is new.
  EXPECT_EQ(out[1].ts_us, 42u);
  EXPECT_EQ(out[1].category, "deploy");
  EXPECT_EQ(out[1].severity, obs::Severity::kWarning);
  EXPECT_EQ(out[1].phase, "deploy");
  EXPECT_EQ(out[1].name, "boot");
  EXPECT_EQ(out[1].fields, event.fields);
  EXPECT_EQ(out[2].name, "second");
  EXPECT_GT(out[1].seq, out[0].seq);
  EXPECT_GT(out[2].seq, out[1].seq);
}

TEST(Recorder, CrossThreadDrainMergesIntoSequenceOrder) {
  obs::FlightRecorder recorder;
  constexpr int kThreads = 3;
  constexpr int kPerThread = 50;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&recorder, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        obs::RecorderEvent event;
        event.category = "t" + std::to_string(t);
        event.name = std::to_string(i);
        recorder.record(std::move(event));
      }
    });
  }
  for (std::thread& thread : pool) thread.join();

  const auto events = recorder.drain();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::vector<int> next(kThreads, 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) EXPECT_GT(events[i].seq, events[i - 1].seq);
    // Each thread's events appear in its own program order.
    const int t = events[i].category[1] - '0';
    EXPECT_EQ(events[i].name, std::to_string(next[t]++));
  }
  EXPECT_EQ(recorder.dropped(), 0u);
}

// --- PhaseScope stamping ---------------------------------------------------

TEST(Recorder, PhaseScopeStampsPhaseRelativeTimestamps) {
  obs::Registry registry(std::make_unique<obs::VirtualClock>(7));
  obs::RegistryScope scope(registry);

  EXPECT_EQ(obs::PhaseScope::current(), nullptr);
  const std::uint64_t t0 = registry.peek_us();
  {
    obs::PhaseScope phase("design");
    ASSERT_NE(obs::PhaseScope::current(), nullptr);
    EXPECT_EQ(obs::PhaseScope::current()->name(), "design");
    obs::record("design", "first");
    (void)registry.now_us();  // virtual time passes inside the phase
    const std::uint64_t t1 = registry.peek_us();
    obs::record("design", obs::Severity::kWarning, "second",
                {{"rule", "ospf"}});
    {
      obs::PhaseScope inner("design.rule");
      EXPECT_EQ(obs::PhaseScope::current()->name(), "design.rule");
    }
    EXPECT_EQ(obs::PhaseScope::current()->name(), "design");

    obs::record("run", "third");
    const auto events = registry.recorder().drain();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].phase, "design");
    EXPECT_EQ(events[0].ts_us, 0u);  // recorded at the phase's start
    EXPECT_EQ(events[1].ts_us, t1 - t0);
    EXPECT_EQ(events[1].severity, obs::Severity::kWarning);
  }
  EXPECT_EQ(obs::PhaseScope::current(), nullptr);

  // Outside any phase: absolute timestamp, empty phase.
  obs::record("run", "outside");
  const auto events = registry.recorder().drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, "");
  EXPECT_EQ(events[0].ts_us, registry.peek_us());
}

// --- JSONL round trip ------------------------------------------------------

TEST(Recorder, JsonlRoundTripIsByteStable) {
  std::vector<obs::RecorderEvent> events;
  obs::RecorderEvent odd;
  odd.ts_us = 42;
  odd.category = "deploy";
  odd.severity = obs::Severity::kError;
  odd.phase = "deploy";
  odd.name = "fault";
  odd.fields = {{"detail", "a\"b\\c\nd"}, {"machine", "r1"}};
  events.push_back(odd);
  events.push_back(make_event("plain"));

  const std::string jsonl = obs::events_to_jsonl(events);
  const auto parsed = core::events_from_jsonl(jsonl);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].ts_us, 42u);
  EXPECT_EQ(parsed[0].severity, obs::Severity::kError);
  EXPECT_EQ(parsed[0].fields, odd.fields);
  // serialize -> parse -> serialize is byte-identical (the stability the
  // checkpoint event slices and report timelines rely on).
  EXPECT_EQ(obs::events_to_jsonl(parsed), jsonl);
}

TEST(Recorder, TornJsonlThrows) {
  EXPECT_THROW((void)core::events_from_jsonl("{\"torn\":"),
               core::CheckpointError);
}

// --- Span lifetime guards --------------------------------------------------

TEST(SpanGuards, DoubleStopIsIdempotent) {
  obs::Registry registry(std::make_unique<obs::VirtualClock>(1));
  obs::Span span(registry, "twice");
  (void)registry.now_us();
  const double first = span.stop_ms();
  const double second = span.stop_ms();
  EXPECT_EQ(first, second);
  EXPECT_GT(first, 0.0);
  // Only one trace event and one histogram observation were recorded.
  EXPECT_EQ(registry.trace_events().size(), 1u);
}

TEST(SpanGuards, StopAfterRegistryDestructionIsSafe) {
  auto registry = std::make_unique<obs::Registry>(
      std::make_unique<obs::VirtualClock>(1));
  obs::Span stopped_late(*registry, "orphan.stopped");
  auto destroyed_late = std::make_unique<obs::Span>(*registry,
                                                    "orphan.destroyed");
  registry.reset();
  // Explicit stop after the registry died: reports 0, records nothing.
  EXPECT_EQ(stopped_late.stop_ms(), 0.0);
  EXPECT_EQ(stopped_late.stop_ms(), 0.0);
  // Destructor-driven close after the registry died: no crash.
  destroyed_late.reset();
}

// --- Run report determinism ------------------------------------------------

std::string run_report_once() {
  obs::Registry registry(std::make_unique<obs::VirtualClock>(1));
  obs::RegistryScope scope(registry);
  core::Workflow wf;
  wf.use_telemetry(&registry);
  wf.run(topology::figure5());
  wf.measure();
  return report::run_report_json(wf);
}

TEST(RunReport, SameSeedRunsProduceByteIdenticalReports) {
  const std::string a = run_report_once();
  const std::string b = run_report_once();
  EXPECT_EQ(a, b);

  const nidb::Value report = nidb::parse_json(a);
  ASSERT_NE(report.find("version"), nullptr);
  const nidb::Value* status = report.find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(*status->as_string(), "ok");
  // Every pipeline phase made the timeline.
  EXPECT_EQ(report.find("phases")->as_array()->size(), 7u);
  EXPECT_FALSE(report::report_events(report).empty());

  EXPECT_TRUE(report::diff_reports(report, nidb::parse_json(b)).empty());
}

TEST(RunReport, DifferentInputsDiffInMetadata) {
  obs::Registry registry(std::make_unique<obs::VirtualClock>(1));
  obs::RegistryScope scope(registry);
  core::Workflow wf;
  wf.use_telemetry(&registry);
  wf.run(topology::small_internet());
  wf.measure();
  const nidb::Value other = nidb::parse_json(report::run_report_json(wf));
  const nidb::Value base = nidb::parse_json(run_report_once());

  const report::ReportDiff diff = report::diff_reports(base, other);
  ASSERT_FALSE(diff.empty());
  bool saw_input_hash = false;
  for (const auto& entry : diff.entries) {
    if (entry.kind == "meta" && entry.key == "input_hash") saw_input_hash = true;
  }
  EXPECT_TRUE(saw_input_hash) << diff.to_string();
}

// --- Report diffing --------------------------------------------------------

const char* kBaselineReport = R"({
  "version": 1, "status": "ok", "input_hash": "h1", "options_signature": "s",
  "phases": [{"name": "load", "ms": 100.0}, {"name": "design", "ms": 50.0}],
  "metrics": {"x": 10, "gone": 1},
  "event_counts": {"deploy": 4}
})";

const char* kCandidateReport = R"({
  "version": 1, "status": "degraded", "input_hash": "h2",
  "options_signature": "s",
  "phases": [{"name": "load", "ms": 104.0}, {"name": "design", "ms": 50.0}],
  "metrics": {"x": 10.5, "new": 2},
  "event_counts": {"deploy": 5}
})";

bool has_entry(const report::ReportDiff& diff, const std::string& kind,
               const std::string& key, const std::string& a,
               const std::string& b) {
  for (const auto& entry : diff.entries) {
    if (entry.kind == kind && entry.key == key && entry.a == a &&
        entry.b == b) {
      return true;
    }
  }
  return false;
}

TEST(ReportDiff, StrictDiffReportsEveryDrift) {
  const nidb::Value a = nidb::parse_json(kBaselineReport);
  const nidb::Value b = nidb::parse_json(kCandidateReport);
  const report::ReportDiff diff = report::diff_reports(a, b);
  EXPECT_TRUE(has_entry(diff, "meta", "status", "ok", "degraded"));
  EXPECT_TRUE(has_entry(diff, "meta", "input_hash", "h1", "h2"));
  EXPECT_TRUE(has_entry(diff, "phase", "load", "100", "104"));
  EXPECT_TRUE(has_entry(diff, "metric", "x", "10", "10.5"));
  EXPECT_TRUE(has_entry(diff, "metric", "gone", "1", "-"));
  EXPECT_TRUE(has_entry(diff, "metric", "new", "-", "2"));
  EXPECT_TRUE(has_entry(diff, "events", "deploy", "4", "5"));
  // Unchanged values never appear.
  EXPECT_FALSE(has_entry(diff, "meta", "options_signature", "s", "s"));
  EXPECT_EQ(diff.entries.size(), 7u) << diff.to_string();
  EXPECT_NE(diff.to_string().find("phase load: 100 -> 104\n"),
            std::string::npos);
}

TEST(ReportDiff, ThresholdSuppressesNoiseButNotStructure) {
  const nidb::Value a = nidb::parse_json(kBaselineReport);
  const nidb::Value b = nidb::parse_json(kCandidateReport);
  report::DiffOptions options;
  options.threshold_pct = 5.0;
  const report::ReportDiff diff = report::diff_reports(a, b, options);
  // 4% phase drift and 5% metric drift sit inside the threshold...
  EXPECT_FALSE(has_entry(diff, "phase", "load", "100", "104"));
  EXPECT_FALSE(has_entry(diff, "metric", "x", "10", "10.5"));
  // ...but appearing/vanishing keys, metadata changes, and event-count
  // drift are structural and always reported.
  EXPECT_TRUE(has_entry(diff, "metric", "gone", "1", "-"));
  EXPECT_TRUE(has_entry(diff, "metric", "new", "-", "2"));
  EXPECT_TRUE(has_entry(diff, "meta", "status", "ok", "degraded"));
  EXPECT_TRUE(has_entry(diff, "events", "deploy", "4", "5"));
}

TEST(ReportDiff, IdenticalReportsDiffEmpty) {
  const nidb::Value a = nidb::parse_json(kBaselineReport);
  const nidb::Value b = nidb::parse_json(kBaselineReport);
  const report::ReportDiff diff = report::diff_reports(a, b);
  EXPECT_TRUE(diff.empty());
  EXPECT_EQ(diff.to_string(), "");
}

TEST(RunReport, LoadReportRejectsNonReports) {
  const std::string dir = temp_dir("autonet_report_load");
  EXPECT_THROW((void)report::load_report(dir + "/missing.json"),
               std::runtime_error);
  {
    std::ofstream out(dir + "/other.json", std::ios::binary);
    out << "{\"foo\": 1}";
  }
  EXPECT_THROW((void)report::load_report(dir + "/other.json"),
               std::runtime_error);
  fs::remove_all(dir);
}

// --- The acceptance path: kill mid-deploy, resume, byte-identical ----------

TEST(RunReportResume, KillMidDeployDumpsTailAndResumesByteIdentical) {
  // Uninterrupted reference report.
  const std::string reference = run_report_once();

  // Find a cooperative boundary inside the deploy phase.
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
  // The deploy phase's trip-visible interior boundaries are the
  // emulated-network ones (convergence runs inside deploy); pick the
  // last so the kill lands deep into the phase.
  std::string kill_at;
  for (const std::string& where : boundaries) {
    if (where.rfind("emulation.", 0) == 0) kill_at = where;
  }
  ASSERT_FALSE(kill_at.empty());

  const std::string dir = temp_dir("autonet_report_resume");

  // Crash mid-deploy with checkpointing on.
  {
    obs::Registry registry(std::make_unique<obs::VirtualClock>());
    obs::RegistryScope scope(registry);
    core::RunControl control;
    control.trip_hook = [&kill_at](std::string_view at) {
      return at == kill_at;
    };
    core::Workflow wf;
    wf.use_telemetry(&registry);
    wf.use_control(&control);
    wf.checkpoint_to(dir);
    bool tripped = false;
    try {
      wf.run(topology::figure5());
      wf.measure();
    } catch (const core::Cancelled& e) {
      EXPECT_EQ(e.where(), kill_at);
      tripped = true;
    }
    ASSERT_TRUE(tripped);
  }

  // The interrupted run left its flight-recorder tail and a partial
  // report next to the checkpoint.
  ASSERT_TRUE(fs::exists(dir + "/flight.jsonl"));
  ASSERT_TRUE(fs::exists(dir + "/run_report.partial.json"));
  EXPECT_NO_THROW((void)core::events_from_jsonl(slurp(dir + "/flight.jsonl")));
  const nidb::Value partial =
      nidb::parse_json(slurp(dir + "/run_report.partial.json"));
  EXPECT_EQ(*partial.find("status")->as_string(), "interrupted");
  EXPECT_EQ(*partial.find("interrupted_phase")->as_string(), "deploy");
  // The partial post-mortem is not a run report; the loader rejects it.
  EXPECT_THROW((void)report::load_report(dir + "/run_report.partial.json"),
               std::runtime_error);

  // Resume and rebuild the report: byte-identical to the uninterrupted
  // run, so the diff is empty.
  {
    obs::Registry registry(std::make_unique<obs::VirtualClock>());
    obs::RegistryScope scope(registry);
    core::Workflow wf;
    wf.use_telemetry(&registry);
    wf.checkpoint_to(dir);
    wf.run(topology::figure5());
    wf.measure();
    EXPECT_FALSE(wf.restored_phases().empty());
    const std::string resumed = report::run_report_json(wf);
    EXPECT_EQ(resumed, reference);
    const report::ReportDiff diff = report::diff_reports(
        nidb::parse_json(reference), nidb::parse_json(resumed));
    EXPECT_TRUE(diff.empty()) << diff.to_string();
  }
  fs::remove_all(dir);
}

// The post-mortem describes an interruption. A resume that records a
// phase fresh has moved past it, so the library removes both files for
// every caller, not only `autonet run`.
TEST(RunReportResume, ResumeThatRecordsAPhaseRemovesThePostMortem) {
  const std::string dir = temp_dir("autonet_report_postmortem");
  const graph::Graph input = topology::small_internet();
  {
    obs::Registry registry(std::make_unique<obs::VirtualClock>());
    obs::RegistryScope scope(registry);
    core::RunControl control;
    control.trip_hook = [](std::string_view at) {
      return at == "render.device.as100r1";
    };
    core::Workflow wf;
    wf.use_telemetry(&registry);
    wf.use_control(&control);
    wf.checkpoint_to(dir);
    EXPECT_THROW(wf.run(input), core::Cancelled);
  }
  ASSERT_TRUE(fs::exists(dir + "/flight.jsonl"));
  ASSERT_TRUE(fs::exists(dir + "/run_report.partial.json"));

  obs::Registry registry(std::make_unique<obs::VirtualClock>());
  obs::RegistryScope scope(registry);
  core::Workflow wf;
  wf.use_telemetry(&registry);
  wf.checkpoint_to(dir);
  wf.run(input);
  wf.measure();
  EXPECT_EQ(wf.restored_phases(),
            (std::vector<std::string>{"load", "design", "compile"}));
  EXPECT_FALSE(fs::exists(dir + "/flight.jsonl"));
  EXPECT_FALSE(fs::exists(dir + "/run_report.partial.json"));
  fs::remove_all(dir);
}

// --- Journal resume provenance ---------------------------------------------

TEST(Journal, ResumedIdsAreDerivedFromJournalShape) {
  const std::string dir = temp_dir("autonet_report_journal");
  experiment::Journal journal(dir + "/journal.jsonl");

  experiment::RunResult clean;
  clean.id = "a";
  clean.ok = true;
  journal.append(clean);  // completed without ever checkpointing

  experiment::CheckpointRecord mid;
  mid.run_id = "b";
  mid.dir = dir + "/ckpt-b";
  mid.phases = {"load", "design"};
  journal.append_checkpoint(mid);
  experiment::RunResult resumed;
  resumed.id = "b";
  resumed.ok = true;
  journal.append(resumed);  // spent the pointer: a genuine mid-run resume

  experiment::CheckpointRecord pending;
  pending.run_id = "c";
  pending.dir = dir + "/ckpt-c";
  journal.append_checkpoint(pending);  // never completed: interrupted

  EXPECT_EQ(journal.resumed_ids(), std::vector<std::string>{"b"});
  const auto checkpoints = journal.load_checkpoints();
  ASSERT_EQ(checkpoints.size(), 1u);
  EXPECT_EQ(checkpoints.begin()->first, "c");
  fs::remove_all(dir);
}

TEST(Journal, ReportPathIsAConditionalKeyThatRoundTrips) {
  experiment::RunResult result;
  result.id = "r";
  result.ok = true;
  const std::string without = result.to_json();
  EXPECT_EQ(without.find("\"report\""), std::string::npos);

  result.report_path = "out/reports/r.report.json";
  const std::string with = result.to_json();
  EXPECT_NE(with.find("\"report\""), std::string::npos);
  EXPECT_EQ(experiment::RunResult::from_json(with).report_path,
            result.report_path);
  EXPECT_EQ(experiment::RunResult::from_json(without).report_path, "");
}

}  // namespace
