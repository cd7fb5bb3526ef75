// The telemetry subsystem: metric primitives, span nesting, exporter
// golden strings, determinism of seeded pipeline runs, and the
// instrumentation threaded through every layer.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>

#include "core/workflow.hpp"
#include "deploy/deployer.hpp"
#include "nidb/value.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "topology/builtin.hpp"

namespace {

using namespace autonet;

// --- Metric primitives ----------------------------------------------------

TEST(ObsMetrics, CounterAndGauge) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  obs::Gauge g;
  g.set(7);
  g.add(-2);
  EXPECT_EQ(g.value(), 5);
}

TEST(ObsMetrics, HistogramBuckets) {
  // Power-of-two upper bounds: value v lands in the first bucket whose
  // bound >= v.
  EXPECT_EQ(obs::Histogram::bucket_index(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(1), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(2), 1u);
  EXPECT_EQ(obs::Histogram::bucket_index(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(4), 2u);
  EXPECT_EQ(obs::Histogram::bucket_index(5), 3u);
  EXPECT_EQ(obs::Histogram::bucket_index(1u << 27), 27u);
  EXPECT_EQ(obs::Histogram::bucket_index((1u << 27) + 1),
            obs::Histogram::kBuckets);  // overflow bucket
  EXPECT_EQ(obs::Histogram::bucket_bound(0), 1u);
  EXPECT_EQ(obs::Histogram::bucket_bound(9), 512u);

  obs::Histogram h;
  h.observe(1);
  h.observe(3);
  h.observe(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 304u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
}

TEST(ObsMetrics, ConcurrentIncrements) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg]() {
      obs::Counter& c = reg.counter("shared");
      for (int i = 0; i < kIters; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("shared").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
}

// --- Registry ------------------------------------------------------------

TEST(ObsRegistry, StableReferencesAndScopes) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x");
  a.inc();
  // Creating more metrics must not invalidate the reference.
  for (int i = 0; i < 100; ++i) reg.counter("c" + std::to_string(i));
  a.inc();
  EXPECT_EQ(reg.counter("x").value(), 2u);

  auto scope = reg.scope("emulation");
  scope.counter("spf_runs").inc(3);
  EXPECT_EQ(reg.counter("emulation.spf_runs").value(), 3u);
}

TEST(ObsRegistry, CurrentFallsBackToGlobal) {
  EXPECT_EQ(&obs::Registry::current(), &obs::Registry::global());
  obs::Registry local;
  {
    obs::RegistryScope use(local);
    EXPECT_EQ(&obs::Registry::current(), &local);
    obs::Registry inner;
    {
      obs::RegistryScope use2(inner);
      EXPECT_EQ(&obs::Registry::current(), &inner);
    }
    EXPECT_EQ(&obs::Registry::current(), &local);
  }
  EXPECT_EQ(&obs::Registry::current(), &obs::Registry::global());
}

TEST(ObsRegistry, DisabledRecordsNoEventsButSpansStillTime) {
  obs::Registry reg(std::make_unique<obs::VirtualClock>(5));
  obs::RegistryScope use(reg);
  reg.set_enabled(false);
  obs::record("deploy", "boot", {{"host", "h1"}});
  double ms = 0;
  {
    obs::Span span(reg, "load");
    ms = span.stop_ms();
  }
  EXPECT_TRUE(reg.trace_events().empty());
  EXPECT_TRUE(reg.recorder().drain().empty());
  // The virtual clock advanced 5us per reading: the span still measured.
  EXPECT_DOUBLE_EQ(ms, 0.005);
}

TEST(ObsRegistry, EventBufferCapCountsDrops) {
  obs::Registry reg;
  for (std::size_t i = 0; i < obs::Registry::kMaxEvents + 10; ++i) {
    reg.record_span(obs::TraceEvent{"k", 0, 1, 0, {}});
  }
  EXPECT_EQ(reg.trace_events().size(), obs::Registry::kMaxEvents);
  EXPECT_EQ(reg.dropped_events(), 10u);
  reg.reset();
  EXPECT_TRUE(reg.trace_events().empty());
  EXPECT_EQ(reg.dropped_events(), 0u);
}

// --- Span nesting and exporter golden strings -----------------------------

TEST(ObsExport, ChromeTraceGolden) {
  obs::Registry reg(std::make_unique<obs::VirtualClock>(10));
  {
    obs::Span outer(reg, "load");
    obs::Span inner(reg, "load.parse");
    inner.arg("device", "r1");
  }
  // VirtualClock(10): outer opens at 10, inner at 20, inner closes at 30,
  // outer at 40. The inner span completes (and is recorded) first.
  EXPECT_EQ(obs::to_chrome_trace(reg),
            "{\"traceEvents\":["
            "{\"name\":\"load.parse\",\"cat\":\"autonet\",\"ph\":\"X\","
            "\"ts\":20,\"dur\":10,\"pid\":1,\"tid\":1,"
            "\"args\":{\"depth\":1,\"device\":\"r1\"}},"
            "{\"name\":\"load\",\"cat\":\"autonet\",\"ph\":\"X\","
            "\"ts\":10,\"dur\":30,\"pid\":1,\"tid\":1,"
            "\"args\":{\"depth\":0}}"
            "],\"displayTimeUnit\":\"ms\"}");
}

TEST(ObsExport, PrometheusGolden) {
  obs::Registry reg(std::make_unique<obs::VirtualClock>(1));
  reg.counter("render.files").inc(3);
  reg.gauge("emulation.routers").set(5);
  obs::Histogram& h = reg.histogram("bytes");
  h.observe(1);
  h.observe(3);
  h.observe(300);
  EXPECT_EQ(obs::to_prometheus(reg),
            "# HELP autonet_render_files Template rendering outcomes "
            "(render/). Source metric 'render.files'.\n"
            "# TYPE autonet_render_files counter\n"
            "autonet_render_files 3\n"
            "# HELP autonet_emulation_routers Control-plane emulation "
            "statistics (emulation/). Source metric 'emulation.routers'.\n"
            "# TYPE autonet_emulation_routers gauge\n"
            "autonet_emulation_routers 5\n"
            "# HELP autonet_bytes Source metric 'bytes'.\n"
            "# TYPE autonet_bytes histogram\n"
            "autonet_bytes_bucket{le=\"1\"} 1\n"
            "autonet_bytes_bucket{le=\"4\"} 2\n"
            "autonet_bytes_bucket{le=\"512\"} 3\n"
            "autonet_bytes_bucket{le=\"+Inf\"} 3\n"
            "autonet_bytes_sum 304\n"
            "autonet_bytes_count 3\n");
}

TEST(ObsExport, PrometheusHelpEscapesBackslashAndNewline) {
  obs::Registry reg(std::make_unique<obs::VirtualClock>(1));
  // The metric name flows into the HELP text; exposition-format escapes
  // (backslash, newline) must be applied there.
  reg.counter("odd\\name\nwith newline").inc();
  const std::string text = obs::to_prometheus(reg);
  EXPECT_NE(text.find("# HELP autonet_odd_name_with_newline Source metric "
                      "'odd\\\\name\\nwith newline'.\n"),
            std::string::npos)
      << text;
}

// --- Pipeline integration -------------------------------------------------

TEST(ObsWorkflow, TraceContainsAllSixPhases) {
  obs::Registry reg(std::make_unique<obs::VirtualClock>(1));
  core::Workflow wf;
  wf.use_telemetry(&reg);
  wf.run(topology::figure5());
  ASSERT_TRUE(wf.ok());
  wf.measure();

  std::set<std::string> top_level;
  for (const auto& e : reg.trace_events()) {
    if (e.depth == 0) top_level.insert(e.name);
  }
  for (const char* phase :
       {"load", "design", "compile", "render", "deploy", "measure"}) {
    EXPECT_TRUE(top_level.contains(phase)) << phase;
  }

  // Child spans from the inner layers, nested under their phases.
  std::set<std::string> nested;
  for (const auto& e : reg.trace_events()) {
    if (e.depth > 0) nested.insert(e.name);
  }
  EXPECT_TRUE(nested.contains("design.ospf"));
  EXPECT_TRUE(nested.contains("design.ibgp"));
  EXPECT_TRUE(nested.contains("compile.device"));
  EXPECT_TRUE(nested.contains("render.device"));
  EXPECT_TRUE(nested.contains("emulation.ospf"));
  EXPECT_TRUE(nested.contains("emulation.bgp"));
  EXPECT_TRUE(nested.contains("measure.reachability"));

  // The export is valid JSON with a traceEvents array.
  auto parsed = nidb::parse_json(obs::to_chrome_trace(reg));
  const nidb::Value* events = parsed.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_NE(events->as_array(), nullptr);
  EXPECT_EQ(events->as_array()->size(), reg.trace_events().size());
}

TEST(ObsWorkflow, SeededRunsExportByteIdenticalTelemetry) {
  // Returns the run's flight-recorder timeline, phase by phase.
  auto run_once = [](obs::Registry& reg) {
    core::Workflow wf;
    wf.use_telemetry(&reg);
    wf.run(topology::small_internet());
    EXPECT_TRUE(wf.ok());
    wf.measure();
    std::string timeline;
    for (const auto& [phase, events] : wf.phase_events()) {
      timeline += phase + "\n" + obs::events_to_jsonl(events);
    }
    return timeline;
  };
  obs::Registry a(std::make_unique<obs::VirtualClock>(1));
  obs::Registry b(std::make_unique<obs::VirtualClock>(1));
  const std::string timeline_a = run_once(a);
  const std::string timeline_b = run_once(b);
  // Counters, gauges, histograms, span timings (virtual time) AND the
  // event timeline are deterministic functions of the code path, so the
  // full exports match byte for byte.
  EXPECT_EQ(obs::to_prometheus(a), obs::to_prometheus(b));
  EXPECT_EQ(obs::to_chrome_trace(a), obs::to_chrome_trace(b));
  EXPECT_NE(timeline_a.find("\"category\":\"deploy\""), std::string::npos);
  EXPECT_EQ(timeline_a, timeline_b);
}

TEST(ObsWorkflow, CountersReflectPipelineWork) {
  obs::Registry reg(std::make_unique<obs::VirtualClock>(1));
  core::Workflow wf;
  wf.use_telemetry(&reg);
  wf.run(topology::figure5());
  ASSERT_TRUE(wf.ok());

  const std::size_t devices = wf.nidb().device_count();
  EXPECT_EQ(reg.counter("compile.devices").value(), devices);
  EXPECT_EQ(reg.counter("render.devices").value(), devices);
  EXPECT_GT(reg.counter("render.templates_rendered").value(), 0u);
  EXPECT_EQ(reg.counter("render.files").value(), wf.configs().file_count());
  EXPECT_EQ(reg.counter("render.bytes").value(), wf.configs().total_bytes());

  // Emulation counters published by EmulatedNetwork::start().
  const auto& stats = wf.network().stats();
  EXPECT_EQ(reg.counter("emulation.spf_runs").value(), stats.spf_runs);
  EXPECT_EQ(reg.counter("emulation.bgp_updates").value(), stats.bgp_updates);
  EXPECT_EQ(reg.counter("emulation.convergence_runs").value(), 1u);
  EXPECT_GT(stats.decision_reruns, 0u);
  EXPECT_GT(stats.lsa_floods, 0u);

  // Deploy events reach the registry as counters and as the deploy
  // phase's flight-recorder events, one boot event per counted boot.
  EXPECT_GT(reg.counter("deploy.events.boot").value(), 0u);
  std::uint64_t boots = 0;
  for (const auto& e : wf.phase_events().at("deploy")) {
    if (e.category == "deploy" && e.name == "boot") ++boots;
  }
  EXPECT_EQ(boots, reg.counter("deploy.events.boot").value());
}

TEST(ObsWorkflow, PhaseTimingsIncludeMeasure) {
  core::Workflow wf;
  wf.run(topology::figure5());
  ASSERT_TRUE(wf.ok());
  EXPECT_FALSE(wf.timings().ms.contains("measure"));
  wf.measure();
  ASSERT_TRUE(wf.timings().ms.contains("measure"));
  EXPECT_NE(wf.timings().to_string().find("measure="), std::string::npos);
  EXPECT_TRUE(wf.measure_report().ok);
}

TEST(ObsWorkflow, MeasureRequiresDeploy) {
  core::Workflow wf;
  EXPECT_THROW(wf.measure(), std::logic_error);
  EXPECT_THROW((void)wf.measure_report(), std::logic_error);
}

TEST(ObsEmulation, ShowMetricsCommand) {
  obs::Registry reg(std::make_unique<obs::VirtualClock>(1));
  core::Workflow wf;
  wf.use_telemetry(&reg);
  wf.run(topology::figure5());
  ASSERT_TRUE(wf.ok());
  auto& net = wf.network();
  const std::string out = net.exec(net.router_names().front(), "show metrics");
  EXPECT_NE(out.find("spf runs: "), std::string::npos);
  EXPECT_NE(out.find("bgp updates: "), std::string::npos);
  EXPECT_NE(out.find("decision process reruns: "), std::string::npos);
  EXPECT_NE(out.find("convergence runs: 1"), std::string::npos);
  EXPECT_EQ(out, net.stats().to_text());
  // Per-router SPF breakdown names a real router.
  EXPECT_NE(out.find("spf[" + net.router_names().front() + "]"),
            std::string::npos);
}

TEST(ObsDeploy, StructuredEventsBackTheLogView) {
  core::Workflow wf;
  wf.load(topology::figure5()).design().compile().render();
  deploy::EmulationHost host("emuhost1");
  deploy::Deployer deployer({&host});
  auto result = deployer.deploy(wf.configs(), wf.nidb());
  ASSERT_TRUE(result.success);
  ASSERT_FALSE(deployer.events().empty());
  const auto lines = deployer.log();
  ASSERT_EQ(lines.size(), deployer.events().size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], deployer.events()[i].to_line());
  }
  // The legacy rendering is unchanged: "<phase>: <detail>".
  EXPECT_TRUE(lines.front().starts_with("archive: "));
}

}  // namespace
