// The experiment campaign engine: spec parsing, matrix expansion with
// deterministic seeds, the resumable journal, statistical aggregation
// (exact percentiles, byte-deterministic exports), histogram percentile
// interpolation + order-independent merging, deterministic deploy
// backoff under virtual clocks, and isolation of concurrent in-process
// campaigns/workflows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/workflow.hpp"
#include "deploy/deployer.hpp"
#include "experiment/aggregate.hpp"
#include "experiment/campaign.hpp"
#include "experiment/journal.hpp"
#include "experiment/runner.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/stats.hpp"
#include "topology/builtin.hpp"

namespace {

using namespace autonet;

// --- Spec parsing ---------------------------------------------------------

constexpr const char* kSpecText = R"(# A three-axis sweep.
campaign rr-sweep
topology small-internet
repetitions 3
seed 42
axis ibgp mesh rr rr-auto
axis backoff_base_ms range 50 150 step 50
axis dns on off
option platform netkit
incident fail_link as20r1 as20r2
incident restore_link as20r1 as20r2
probe reachability
probe traceroute as300r2 as100r2
)";

TEST(CampaignParse, FullSpec) {
  const experiment::CampaignSpec spec = experiment::parse_campaign(kSpecText);
  EXPECT_EQ(spec.name, "rr-sweep");
  EXPECT_EQ(spec.topology, "small-internet");
  EXPECT_EQ(spec.repetitions, 3);
  EXPECT_EQ(spec.seed, 42u);
  ASSERT_EQ(spec.axes.size(), 3u);
  EXPECT_EQ(spec.axes[0].key, "ibgp");
  EXPECT_EQ(spec.axes[0].values,
            (std::vector<std::string>{"mesh", "rr", "rr-auto"}));
  // range 50 150 step 50 expands to the value list.
  EXPECT_EQ(spec.axes[1].values, (std::vector<std::string>{"50", "100", "150"}));
  EXPECT_EQ(spec.axes[2].values, (std::vector<std::string>{"on", "off"}));
  ASSERT_EQ(spec.options.size(), 1u);
  EXPECT_EQ(spec.options[0].first, "platform");
  EXPECT_EQ(spec.incident.size(), 2u);
  ASSERT_EQ(spec.probes.size(), 2u);
  EXPECT_EQ(spec.probes[0].kind, "reachability");
  EXPECT_EQ(spec.probes[1].src, "as300r2");
  EXPECT_EQ(spec.run_count(), 3u * 3u * 2u * 3u);
}

TEST(CampaignParse, Errors) {
  // A typo fails the spec at parse time, not run #37 of the matrix.
  EXPECT_THROW(experiment::parse_campaign("topology figure5\n"),
               experiment::CampaignError);  // missing name
  EXPECT_THROW(experiment::parse_campaign("campaign x\nfrobnicate y\n"),
               experiment::CampaignError);  // unknown directive
  EXPECT_THROW(experiment::parse_campaign("campaign x\naxis warp 1 2\n"),
               experiment::CampaignError);  // unknown axis key
  EXPECT_THROW(
      experiment::parse_campaign("campaign x\naxis ibgp mesh\naxis ibgp rr\n"),
      experiment::CampaignError);  // duplicate axis
  EXPECT_THROW(experiment::parse_campaign("campaign x\naxis ibgp hub\n"),
               experiment::CampaignError);  // invalid ibgp value
  EXPECT_THROW(experiment::parse_campaign("campaign x\naxis dns maybe\n"),
               experiment::CampaignError);  // invalid bool
  EXPECT_THROW(
      experiment::parse_campaign("campaign x\naxis ospf_cost range 9 1\n"),
      experiment::CampaignError);  // descending range
  EXPECT_THROW(experiment::parse_campaign("campaign x\nrepetitions 0\n"),
               experiment::CampaignError);
  EXPECT_THROW(experiment::parse_campaign("campaign x\nincident explode a b\n"),
               experiment::CampaignError);  // bad incident verb
  EXPECT_THROW(experiment::parse_campaign("campaign x\nprobe ping a b\n"),
               experiment::CampaignError);
}

// --- Matrix expansion -----------------------------------------------------

TEST(CampaignExpand, MatrixOrderAndSeeds) {
  const experiment::CampaignSpec spec = experiment::parse_campaign(
      "campaign m\nrepetitions 2\naxis ibgp mesh rr\naxis dns on off\n");
  const std::vector<experiment::RunSpec> runs = experiment::expand(spec);
  ASSERT_EQ(runs.size(), 8u);
  // Axis-major order, last axis fastest, repetition innermost.
  EXPECT_EQ(runs[0].id, "ibgp=mesh,dns=on/rep0");
  EXPECT_EQ(runs[1].id, "ibgp=mesh,dns=on/rep1");
  EXPECT_EQ(runs[2].id, "ibgp=mesh,dns=off/rep0");
  EXPECT_EQ(runs[4].id, "ibgp=rr,dns=on/rep0");
  EXPECT_EQ(runs[7].id, "ibgp=rr,dns=off/rep1");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].index, i);
  }
  // Axis values are applied to the workflow options.
  EXPECT_EQ(runs[0].workflow.ibgp, "mesh");
  EXPECT_TRUE(runs[0].workflow.enable_dns);
  EXPECT_EQ(runs[7].workflow.ibgp, "rr");
  EXPECT_FALSE(runs[7].workflow.enable_dns);

  // Seeds: deterministic, pairwise distinct, fed to deploy backoff.
  const std::vector<experiment::RunSpec> again = experiment::expand(spec);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].seed, again[i].seed);
    EXPECT_EQ(runs[i].workflow.deploy.backoff_seed, runs[i].seed);
    for (std::size_t j = i + 1; j < runs.size(); ++j) {
      EXPECT_NE(runs[i].seed, runs[j].seed) << runs[i].id << " vs " << runs[j].id;
    }
  }

  // The campaign-level seed perturbs every run seed.
  experiment::CampaignSpec reseeded = spec;
  reseeded.seed = 1;
  EXPECT_NE(experiment::expand(reseeded)[0].seed, runs[0].seed);
}

TEST(CampaignExpand, AxislessCampaignIsRepetitionsOnly) {
  const experiment::CampaignSpec spec =
      experiment::parse_campaign("campaign solo\nrepetitions 3\n");
  const std::vector<experiment::RunSpec> runs = experiment::expand(spec);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].id, "base/rep0");
  EXPECT_EQ(runs[2].id, "base/rep2");
}

TEST(CampaignExpand, ResolveTopology) {
  EXPECT_EQ(experiment::resolve_topology("figure5").node_count(),
            topology::figure5().node_count());
  EXPECT_EQ(experiment::resolve_topology("line:4").node_count(), 4u);
  EXPECT_EQ(experiment::resolve_topology("ring:6").node_count(), 6u);
  EXPECT_EQ(experiment::resolve_topology("grid:2x3").node_count(), 6u);
  EXPECT_THROW(experiment::resolve_topology("blob:4"), experiment::CampaignError);
  EXPECT_THROW(experiment::resolve_topology("line:0"), experiment::CampaignError);
}

// --- Journal --------------------------------------------------------------

experiment::RunResult make_result(const std::string& id, std::size_t index,
                                  bool ok) {
  experiment::RunResult result;
  result.id = id;
  result.index = index;
  result.seed = 7;
  result.ok = ok;
  if (!ok) result.error = "deploy failed";
  result.axis_values = {{"ibgp", "mesh"}};
  result.metrics = {{"convergence.rounds", 3}, {"phase.deploy.ms", 12.5}};
  return result;
}

TEST(Journal, JsonRoundTrip) {
  const experiment::RunResult result = make_result("ibgp=mesh/rep0", 4, false);
  const experiment::RunResult parsed =
      experiment::RunResult::from_json(result.to_json());
  EXPECT_EQ(parsed.id, result.id);
  EXPECT_EQ(parsed.index, 4u);
  EXPECT_EQ(parsed.seed, 7u);
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.error, "deploy failed");
  EXPECT_EQ(parsed.axis_values, result.axis_values);
  EXPECT_EQ(parsed.metric("convergence.rounds"), 3);
  EXPECT_EQ(parsed.metric("phase.deploy.ms"), 12.5);
  EXPECT_EQ(parsed.metric("no.such.metric", -1), -1);
}

TEST(Journal, LoadSkipsTornTrailingLine) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "autonet_journal_test.jsonl")
          .string();
  std::filesystem::remove(path);
  experiment::Journal journal(path);
  journal.append(make_result("a/rep0", 0, true));
  journal.append(make_result("b/rep0", 1, true));
  {
    // Simulate a kill mid-append: a torn, unparseable final line.
    std::ofstream file(path, std::ios::binary | std::ios::app);
    file << "{\"id\":\"c/rep0\",\"ok\":tr";
  }
  const auto loaded = journal.load();
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(loaded.contains("a/rep0"));
  EXPECT_TRUE(loaded.contains("b/rep0"));
  EXPECT_FALSE(loaded.contains("c/rep0"));
  std::filesystem::remove(path);
}

TEST(Journal, EmptyPathDisablesPersistence) {
  experiment::Journal journal("");
  journal.append(make_result("a/rep0", 0, true));  // no-op, no throw
  EXPECT_TRUE(journal.load().empty());
}

// --- Aggregation ----------------------------------------------------------

TEST(Aggregate, GroupsCollapseRepetitionsAndExcludeFailures) {
  std::vector<experiment::RunResult> results;
  for (int rep = 0; rep < 4; ++rep) {
    experiment::RunResult r;
    r.id = "ibgp=mesh/rep" + std::to_string(rep);
    r.index = static_cast<std::size_t>(rep);
    r.repetition = rep;
    r.axis_values = {{"ibgp", "mesh"}};
    r.ok = rep != 3;  // one failed repetition
    r.metrics = {{"m", static_cast<double>(rep + 1)}};
    results.push_back(std::move(r));
  }
  const auto groups = experiment::aggregate(results);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].key, "ibgp=mesh");
  EXPECT_EQ(groups[0].runs, 4u);
  EXPECT_EQ(groups[0].failed, 1u);
  ASSERT_EQ(groups[0].metrics.size(), 1u);
  const experiment::MetricSummary& m = groups[0].metrics[0];
  // Samples {1,2,3}: the failed run's metrics are excluded.
  EXPECT_EQ(m.count, 3u);
  EXPECT_DOUBLE_EQ(m.mean, 2.0);
  EXPECT_DOUBLE_EQ(m.min, 1.0);
  EXPECT_DOUBLE_EQ(m.max, 3.0);
  EXPECT_DOUBLE_EQ(m.p50, 2.0);
  EXPECT_DOUBLE_EQ(m.p95, 2.9);  // interpolated, not snapped to 3
}

TEST(Aggregate, CsvAndJsonlAreDeterministic) {
  std::vector<experiment::RunResult> forward;
  for (int i = 0; i < 6; ++i) {
    experiment::RunResult r;
    r.id = "dns=" + std::string(i % 2 == 0 ? "on" : "off") + "/rep" +
           std::to_string(i / 2);
    r.axis_values = {{"dns", i % 2 == 0 ? "on" : "off"}};
    r.ok = true;
    r.metrics = {{"rounds", static_cast<double>(10 - i)},
                 {"spf", 1.0 / (i + 1)}};
    forward.push_back(std::move(r));
  }
  std::vector<experiment::RunResult> reversed(forward.rbegin(), forward.rend());
  // Grouping sorts canonically, so input order (= pool completion order)
  // cannot leak into the exports.
  EXPECT_EQ(experiment::to_csv(experiment::aggregate(forward)),
            experiment::to_csv(experiment::aggregate(reversed)));
  EXPECT_EQ(experiment::to_jsonl(experiment::aggregate(forward)),
            experiment::to_jsonl(experiment::aggregate(reversed)));
  const std::string csv = experiment::to_csv(experiment::aggregate(forward));
  EXPECT_TRUE(csv.starts_with("group,metric,count,mean,min,max,p50,p95\n"));
  EXPECT_NE(csv.find("dns=off,rounds,3"), std::string::npos);
}

// --- Sample percentiles --------------------------------------------------

TEST(SamplePercentile, ExactOrderStatistics) {
  EXPECT_DOUBLE_EQ(obs::sample_percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(obs::sample_percentile({7}, 95), 7.0);
  EXPECT_DOUBLE_EQ(obs::sample_percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(obs::sample_percentile({4, 1, 3, 2}, 0), 1.0);
  EXPECT_DOUBLE_EQ(obs::sample_percentile({4, 1, 3, 2}, 100), 4.0);
  EXPECT_DOUBLE_EQ(obs::sample_percentile({1, 2, 3, 4}, 95), 3.85);
}

// --- Deterministic deploy backoff under VirtualClock (satellite) ----------

TEST(BackoffDeterminism, SameSeedSameDelays) {
  deploy::DeployOptions opts;
  opts.backoff_base_ms = 50;
  opts.backoff_seed = 1234;
  deploy::BackoffClock one(opts);
  deploy::BackoffClock two(opts);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(one.next_delay_ms(attempt), two.next_delay_ms(attempt));
  }
  deploy::DeployOptions other = opts;
  other.backoff_seed = 1235;
  deploy::BackoffClock three(other);
  bool any_difference = false;
  deploy::BackoffClock four(opts);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    any_difference |= four.next_delay_ms(attempt) != three.next_delay_ms(attempt);
  }
  EXPECT_TRUE(any_difference);
}

TEST(BackoffDeterminism, DelaysAdvanceVirtualClockNotWallClock) {
  obs::Registry registry(std::make_unique<obs::VirtualClock>());
  obs::RegistryScope scope(registry);
  const std::uint64_t before = registry.now_us();
  deploy::DeployOptions opts;
  opts.backoff_seed = 99;
  deploy::BackoffClock clock(opts);
  const auto wall_start = std::chrono::steady_clock::now();
  const int delay = clock.next_delay_ms(1);
  const auto wall_elapsed = std::chrono::steady_clock::now() - wall_start;
  // The virtual clock jumped by exactly the delay; the wall clock did
  // not sleep through it.
  const std::uint64_t after = registry.now_us();
  EXPECT_GE(after - before, static_cast<std::uint64_t>(delay) * 1000);
  EXPECT_LT(wall_elapsed, std::chrono::milliseconds(delay > 10 ? delay : 10));
  // A wall-clock registry refuses the jump instead of lying.
  obs::Registry real(std::make_unique<obs::RealClock>());
  EXPECT_FALSE(real.advance_clock_us(1000));
}

// --- Campaign runner ------------------------------------------------------

experiment::CampaignSpec fast_spec() {
  // figure5 deploys in milliseconds; 2 axes x 2 reps = 8 runs keeps the
  // pool busy without slowing the suite.
  return experiment::parse_campaign(
      "campaign fast\n"
      "topology figure5\n"
      "repetitions 2\n"
      "seed 7\n"
      "jobs 4\n"
      "axis ibgp mesh rr-auto\n"
      "axis dns on off\n"
      "probe reachability\n");
}

TEST(CampaignRunner, RunsMatrixInParallelAndAggregates) {
  experiment::CampaignRunner runner(fast_spec());
  const experiment::CampaignResult result = runner.run();
  EXPECT_EQ(result.results.size(), 8u);
  EXPECT_EQ(result.executed, 8u);
  EXPECT_EQ(result.skipped, 0u);
  EXPECT_TRUE(result.all_ok());
  for (std::size_t i = 0; i < result.results.size(); ++i) {
    const experiment::RunResult& run = result.results[i];
    EXPECT_EQ(run.index, i);
    EXPECT_TRUE(run.ok) << run.id << ": " << run.error;
    EXPECT_GT(run.metric("convergence.converged"), 0) << run.id;
    EXPECT_GT(run.metric("probe.reachability.frac"), 0.99) << run.id;
    EXPECT_GT(run.metric("emulation.spf_runs"), 0) << run.id;
    EXPECT_GT(run.metric("phase.deploy.ms", -1), -1) << run.id;
  }
  // Campaign telemetry: a span tree (each run's record is its journal
  // line, not a campaign event).
  std::vector<std::string> span_names;
  for (const auto& span : runner.telemetry().trace_events()) {
    span_names.push_back(span.name);
  }
  EXPECT_TRUE(std::count(span_names.begin(), span_names.end(), "campaign.fast"));
  EXPECT_TRUE(std::count(span_names.begin(), span_names.end(), "campaign.expand"));
  EXPECT_TRUE(std::count(span_names.begin(), span_names.end(),
                         "campaign.execute"));
}

TEST(CampaignRunner, TwoInvocationsProduceIdenticalAggregates) {
  const experiment::CampaignSpec spec = fast_spec();
  experiment::CampaignRunner first(spec);
  experiment::CampaignRunner second(spec);
  const auto csv_a = experiment::to_csv(experiment::aggregate(first.run().results));
  const auto csv_b =
      experiment::to_csv(experiment::aggregate(second.run().results));
  // Byte-identical across invocations: per-run registries + virtual
  // clocks make every metric a pure function of the run.
  EXPECT_EQ(csv_a, csv_b);
}

TEST(CampaignRunner, ResumeSkipsJournalledRuns) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "autonet_resume_test.jsonl")
          .string();
  std::filesystem::remove(path);
  const experiment::CampaignSpec spec = fast_spec();

  // First invocation "killed" after three runs: seed the journal with a
  // prefix of the matrix (plus one failed run, which must re-execute).
  {
    const std::vector<experiment::RunSpec> matrix = experiment::expand(spec);
    experiment::Journal journal(path);
    journal.claim(spec);  // the identity line the runner resumes under
    for (std::size_t i = 0; i < 3; ++i) {
      experiment::RunResult done = experiment::CampaignRunner::execute_run(
          matrix[i], spec);
      ASSERT_TRUE(done.ok);
      journal.append(done);
    }
    experiment::RunResult failed;
    failed.id = matrix[3].id;
    failed.index = 3;
    failed.ok = false;
    failed.error = "simulated crash";
    journal.append(failed);
  }

  experiment::RunnerOptions opts;
  opts.journal_path = path;
  experiment::CampaignRunner resumed(spec, opts);
  const experiment::CampaignResult result = resumed.run();
  EXPECT_EQ(result.skipped, 3u);   // journal hits
  EXPECT_EQ(result.executed, 5u);  // 4 missing + 1 failed retried
  EXPECT_TRUE(result.all_ok());

  // The resumed aggregate matches a fresh full campaign byte for byte.
  experiment::CampaignRunner fresh(spec);
  EXPECT_EQ(experiment::to_csv(experiment::aggregate(result.results)),
            experiment::to_csv(experiment::aggregate(fresh.run().results)));

  // resume=false re-executes everything.
  experiment::RunnerOptions no_resume;
  no_resume.journal_path = path;
  no_resume.resume = false;
  std::filesystem::remove(path);
  experiment::CampaignRunner rerun(spec, no_resume);
  EXPECT_EQ(rerun.run().executed, 8u);
  std::filesystem::remove(path);
}

// The journal's first line names the campaign: an edited spec, or a
// journal written before journals named their campaign, starts over
// instead of resuming results another spec produced.
TEST(CampaignRunner, JournalOfAnotherSpecStartsOver) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "autonet_journal_identity_test")
          .string();
  std::filesystem::remove_all(dir);
  experiment::RunnerOptions opts;
  opts.journal_path = dir + "/journal.jsonl";
  experiment::CampaignSpec spec = fast_spec();
  {
    // No identity line: every run executes again.
    experiment::Journal unnamed(opts.journal_path);
    unnamed.append(experiment::CampaignRunner::execute_run(
        experiment::expand(spec).front(), spec));
  }
  experiment::CampaignRunner first(spec, opts);
  EXPECT_EQ(first.run().executed, 8u);
  experiment::CampaignRunner again(spec, opts);
  EXPECT_EQ(again.run().skipped, 8u);

  spec.options.emplace_back("platform", "dynagen");
  experiment::CampaignRunner edited(spec, opts);
  const experiment::CampaignResult result = edited.run();
  EXPECT_EQ(result.executed, 8u);
  EXPECT_EQ(result.skipped, 0u);
  std::filesystem::remove_all(dir);
}

// --- Concurrency isolation (satellite) ------------------------------------

TEST(CampaignIsolation, ConcurrentCampaignsDoNotShareState) {
  // Two different campaigns run concurrently in one process; each must
  // produce exactly what it produces alone (no NIDB/registry bleed).
  const experiment::CampaignSpec spec_a = fast_spec();
  const experiment::CampaignSpec spec_b = experiment::parse_campaign(
      "campaign other\n"
      "topology line:4\n"
      "repetitions 2\n"
      "seed 11\n"
      "jobs 2\n"
      "axis ospf_cost range 10 20 step 10\n"
      "probe reachability\n");

  std::string serial_a, serial_b;
  {
    experiment::CampaignRunner a(spec_a);
    serial_a = experiment::to_csv(experiment::aggregate(a.run().results));
    experiment::CampaignRunner b(spec_b);
    serial_b = experiment::to_csv(experiment::aggregate(b.run().results));
  }

  std::string concurrent_a, concurrent_b;
  std::thread ta([&] {
    experiment::CampaignRunner a(spec_a);
    concurrent_a = experiment::to_csv(experiment::aggregate(a.run().results));
  });
  std::thread tb([&] {
    experiment::CampaignRunner b(spec_b);
    concurrent_b = experiment::to_csv(experiment::aggregate(b.run().results));
  });
  ta.join();
  tb.join();
  EXPECT_EQ(concurrent_a, serial_a);
  EXPECT_EQ(concurrent_b, serial_b);
  EXPECT_NE(concurrent_a, concurrent_b);
}

TEST(CampaignIsolation, ConcurrentWorkflowsKeepPrivateRegistries) {
  // Four workflows on four threads, each with its own registry made
  // current via RegistryScope: every registry must see exactly its own
  // run's telemetry (equal span multisets, no cross-talk), and the
  // builds must agree with a serial reference.
  constexpr int kThreads = 4;
  std::vector<std::string> exports(kThreads);
  std::vector<std::size_t> booted(kThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      obs::Registry registry(std::make_unique<obs::VirtualClock>());
      obs::RegistryScope scope(registry);
      core::Workflow wf;
      wf.use_telemetry(&registry);
      wf.run(topology::figure5());
      booted[static_cast<std::size_t>(t)] = wf.deploy_result().booted.size();
      exports[static_cast<std::size_t>(t)] = obs::to_chrome_trace(registry);
    });
  }
  for (std::thread& thread : pool) thread.join();

  obs::Registry reference_registry(std::make_unique<obs::VirtualClock>());
  obs::RegistryScope scope(reference_registry);
  core::Workflow reference;
  reference.use_telemetry(&reference_registry);
  reference.run(topology::figure5());
  const std::string reference_export = obs::to_chrome_trace(reference_registry);

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(booted[static_cast<std::size_t>(t)],
              reference.deploy_result().booted.size());
    // Byte-identical traces: virtual clocks + private registries mean
    // thread interleaving cannot perturb any run's telemetry.
    EXPECT_EQ(exports[static_cast<std::size_t>(t)], reference_export) << t;
  }
}

}  // namespace
