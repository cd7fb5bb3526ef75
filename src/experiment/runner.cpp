#include "experiment/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/hash.hpp"
#include "measure/client.hpp"
#include "obs/span.hpp"
#include "report/run_report.hpp"

namespace autonet::experiment {

namespace {

void put_metric(RunResult& result, std::string name, double value) {
  result.metrics.emplace_back(std::move(name), value);
}

// Workflow-level metrics (convergence, deploy effort, emulation stats,
// phase durations) live in report::workflow_metrics so the run report
// and the journal derive from the same values; snapping also matches
// (report::snap_metric) so journal-replayed aggregates stay
// byte-identical to fresh ones.
void collect_metrics(RunResult& result, core::Workflow& wf, bool deployed) {
  for (auto& [name, value] : report::workflow_metrics(wf, deployed)) {
    put_metric(result, std::move(name), value);
  }
}

void run_probes(RunResult& result, core::Workflow& wf, const CampaignSpec& spec) {
  for (const Probe& probe : spec.probes) {
    if (probe.kind == "reachability") {
      const auto matrix = wf.measurement().reachability();
      const std::size_t total =
          matrix.routers.size() * (matrix.routers.size() - 1);
      const std::size_t pairs = matrix.reachable_pairs();
      put_metric(result, "probe.reachability.pairs", static_cast<double>(pairs));
      put_metric(result, "probe.reachability.total", static_cast<double>(total));
      put_metric(result, "probe.reachability.frac",
                 total == 0 ? 1.0
                            : static_cast<double>(pairs) /
                                  static_cast<double>(total));
    } else if (probe.kind == "traceroute") {
      const auto trace = wf.measurement().traceroute(probe.src, probe.dst);
      const std::string stem = "probe.trace." + probe.src + "-" + probe.dst;
      put_metric(result, stem + ".reached", trace.reached ? 1 : 0);
      put_metric(result, stem + ".hops",
                 static_cast<double>(trace.node_path.size()));
    }
  }
}

void run_incident(RunResult& result, core::Workflow& wf,
                  const CampaignSpec& spec) {
  if (spec.incident.empty()) return;
  emulation::IncidentRunner runner(wf.network());
  const emulation::IncidentReport report = runner.run(spec.incident);
  put_metric(result, "incident.ok", report.ok ? 1 : 0);
  put_metric(result, "incident.steps", static_cast<double>(report.steps.size()));
  std::size_t applied = 0;
  std::size_t lost_max = 0;
  for (const auto& step : report.steps) {
    if (step.applied) ++applied;
    lost_max = std::max(lost_max, step.lost.size());
  }
  put_metric(result, "incident.applied", static_cast<double>(applied));
  put_metric(result, "incident.pairs_lost_max", static_cast<double>(lost_max));
  put_metric(result, "incident.baseline_pairs",
             static_cast<double>(report.baseline_pairs));
  put_metric(result, "incident.final_pairs",
             report.steps.empty()
                 ? static_cast<double>(report.baseline_pairs)
                 : static_cast<double>(report.steps.back().pairs_after));
}

}  // namespace

std::string checkpoint_dir_name(const std::string& run_id) {
  std::string out;
  out.reserve(run_id.size() + 17);
  for (const char c : run_id) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  }
  out += '-';
  out += std::to_string(fnv1a(run_id) % 1000000000ULL);
  return out;
}

CampaignRunner::CampaignRunner(CampaignSpec spec, RunnerOptions options)
    : spec_(std::move(spec)), options_(options),
      owned_obs_(std::make_unique<obs::Registry>(
          std::make_unique<obs::VirtualClock>())) {}

RunResult CampaignRunner::execute_run(const RunSpec& run,
                                      const CampaignSpec& spec,
                                      obs::Registry* run_registry,
                                      const std::string& checkpoint_dir,
                                      core::RunControl* control,
                                      const std::string& report_path,
                                      const std::string& baseline_dir) {
  RunResult result;
  result.id = run.id;
  result.index = run.index;
  result.repetition = run.repetition;
  result.seed = run.seed;
  result.axis_values = run.axis_values;

  // Own registry + virtual clock: the run's telemetry is isolated from
  // every other run and deterministic regardless of scheduling.
  std::unique_ptr<obs::Registry> owned;
  if (run_registry == nullptr) {
    owned = std::make_unique<obs::Registry>(std::make_unique<obs::VirtualClock>());
    run_registry = owned.get();
  }
  obs::RegistryScope scope(*run_registry);

  core::Workflow wf(run.workflow);
  wf.use_telemetry(run_registry);
  wf.use_control(control);
  if (!checkpoint_dir.empty()) wf.checkpoint_to(checkpoint_dir);
  if (!baseline_dir.empty()) wf.incremental_from(baseline_dir);
  try {
    wf.run(resolve_topology(run.topology));
    const bool deployed = wf.deploy_result().success;
    if (deployed) {
      wf.measure();
      run_probes(result, wf, spec);
      run_incident(result, wf, spec);
      result.ok = wf.deploy_result().errors.empty();
      if (!result.ok) result.error = wf.errors().front().to_string();
    } else {
      result.error = wf.errors().empty() ? "deployment failed"
                                         : wf.errors().front().to_string();
    }
    collect_metrics(result, wf, deployed);
    // Incremental savings, journalled per run (not in workflow_metrics:
    // they depend on the baseline, so they must never enter the
    // byte-compared run report). `exp report` aggregates them per axis.
    if (wf.incremental_report().enabled) {
      const core::IncrementalReport& incr = wf.incremental_report();
      const double dirty = static_cast<double>(incr.plan.dirty_devices.size());
      const double reused = static_cast<double>(incr.plan.reused_devices.size());
      put_metric(result, "delta.dirty_devices", dirty);
      put_metric(result, "delta.reused_devices", reused);
      put_metric(result, "delta.reuse_ratio",
                 dirty + reused == 0 ? (incr.mode == "warm" ? 1.0 : 0.0)
                                     : reused / (dirty + reused));
    }
  } catch (const core::Interrupted&) {
    // Cancellation/deadline is not a run failure: completed phases are
    // checkpointed; the caller journals a pointer and stops gracefully.
    throw;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  if (!report_path.empty()) {
    // Observability artifact: failing to write it must not turn a good
    // run into a failed one.
    try {
      report::write_run_report(wf, report_path);
      result.report_path = report_path;
    } catch (const std::exception&) {
    }
  }
  std::sort(result.metrics.begin(), result.metrics.end());
  for (auto& [name, value] : result.metrics) value = report::snap_metric(value);
  return result;
}

CampaignResult CampaignRunner::run() {
  obs::Registry& campaign_obs = telemetry();
  obs::RegistryScope campaign_scope(campaign_obs);
  obs::Span root(campaign_obs, "campaign." + spec_.name);

  std::vector<RunSpec> matrix;
  {
    obs::Span span(campaign_obs, "campaign.expand");
    matrix = expand(spec_);
  }

  if (!options_.report_dir.empty()) {
    std::filesystem::create_directories(options_.report_dir);
  }

  Journal journal(options_.journal_path);
  journal.claim(spec_);
  std::map<std::string, RunResult> done =
      options_.resume ? journal.load() : std::map<std::string, RunResult>{};
  std::map<std::string, CheckpointRecord> pending_ckpts =
      options_.resume ? journal.load_checkpoints()
                      : std::map<std::string, CheckpointRecord>{};

  CampaignResult campaign;
  campaign.name = spec_.name;
  campaign.results.resize(matrix.size());

  int jobs = options_.jobs != 0 ? options_.jobs : spec_.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 2;
  }
  jobs = std::min<int>(jobs, static_cast<int>(matrix.size()));
  jobs = std::max(jobs, 1);

  // Incremental campaigns: matrix[0] completes first (synchronously) and
  // becomes the delta-engine baseline every later cell chains off.
  std::string baseline_dir;
  if (options_.incremental && !options_.checkpoint_dir.empty() &&
      !matrix.empty()) {
    baseline_dir =
        options_.checkpoint_dir + "/" + checkpoint_dir_name(matrix[0].id);
  }

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> skipped{0};
  std::atomic<std::size_t> resumed{0};
  std::atomic<bool> stop{false};
  // One matrix cell, start to journalled finish. Returns false when the
  // pool must drain (cancellation / expired deadline).
  auto process = [&](std::size_t i) -> bool {
    const RunSpec& run = matrix[i];
    if (const auto it = done.find(run.id); it != done.end() && it->second.ok) {
      // Journal hit: the run completed in a previous invocation.
      campaign.results[i] = it->second;
      campaign.results[i].index = run.index;
      skipped.fetch_add(1);
      return true;
    }
    std::string ckpt_dir;
    if (!options_.checkpoint_dir.empty()) {
      ckpt_dir = options_.checkpoint_dir + "/" + checkpoint_dir_name(run.id);
    }
    std::string report_path;
    if (!options_.report_dir.empty()) {
      report_path = options_.report_dir + "/" + checkpoint_dir_name(run.id) +
                    ".report.json";
    }
    if (pending_ckpts.find(run.id) != pending_ckpts.end()) {
      resumed.fetch_add(1);
    }
    obs::Registry run_registry(std::make_unique<obs::VirtualClock>());
    try {
      RunResult result =
          execute_run(run, spec_, &run_registry, ckpt_dir, options_.control,
                      report_path, i == 0 ? std::string() : baseline_dir);
      journal.append(result);
      campaign.results[i] = std::move(result);
      executed.fetch_add(1);
    } catch (const core::Interrupted& e) {
      // Journal where this run got to, so the next invocation resumes
      // it from its last completed phase, then drain the pool.
      if (!ckpt_dir.empty()) {
        CheckpointRecord record;
        record.run_id = run.id;
        record.dir = ckpt_dir;
        record.reason = e.what();
        record.phases = core::CheckpointStore(ckpt_dir).phases();
        journal.append_checkpoint(record);
      }
      stop.store(true);
      return false;
    }
    return true;
  };
  auto worker = [&]() {
    for (;;) {
      // A cancellation or expired deadline stops the pool between runs;
      // the run that observed it has already checkpointed its progress.
      if (stop.load() ||
          (options_.control != nullptr && options_.control->should_stop())) {
        stop.store(true);
        return;
      }
      const std::size_t i = next.fetch_add(1);
      if (i >= matrix.size()) return;
      if (!process(i)) return;
    }
  };

  {
    obs::Span span(campaign_obs, "campaign.execute");
    span.arg("runs", std::to_string(matrix.size()))
        .arg("jobs", std::to_string(jobs));
    if (!baseline_dir.empty()) {
      // The baseline cell runs alone; every other cell plans against its
      // finished checkpoint directory.
      next.store(1);
      if (!process(0)) stop.store(true);
    }
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& thread : pool) thread.join();
  }

  campaign.executed = executed.load();
  campaign.skipped = skipped.load();
  campaign.resumed = resumed.load();
  campaign.interrupted = stop.load();
  if (campaign.interrupted) {
    // Drop the placeholder slots of runs the stopped pool never reached;
    // what remains is exactly what completed (and is journalled).
    std::erase_if(campaign.results,
                  [](const RunResult& r) { return r.id.empty(); });
  }
  for (const RunResult& result : campaign.results) {
    if (!result.ok) ++campaign.failed;
  }
  return campaign;
}

}  // namespace autonet::experiment
