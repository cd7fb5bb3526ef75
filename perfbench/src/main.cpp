// The repo benchmark's entry point:
//
//   autonet_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --repo CHECKOUT --work BUILD_DIR
//
// runs one workload and prints, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer
// ones; BENCHMARK.json at the checkout root lists both. Digest and check
// lines come before it. Exit code 0 means the run completed (check
// "correct"); anything else means it could not run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},         {"build_s", "s"},       {"run_s", "s"},
    {"runs_per_s", "runs/s"}, {"peak_rss_mb", "MB"},
};

// A layer a workload does not exercise reports 0 for its metrics.
const std::vector<MetricDef> kPerLayer = {
    {"phase.load_s", "s"},
    {"phase.design_s", "s"},
    {"phase.compile_s", "s"},
    {"phase.render_s", "s"},
    {"phase.lint_s", "s"},
    {"phase.deploy_s", "s"},
    {"phase.measure_s", "s"},
    {"lint.bgp-asym-session_s", "s"},
    {"lint.rest_s", "s"},
    {"lint.findings", "count"},
    {"measure.reachability_s", "s"},
    {"measure.validate_s", "s"},
    {"measure.pings", "count"},
    {"measure.unreachable", "count"},
    {"measure.mean_hops", "hops"},
    {"measure.ns_per_hop", "ns/hop"},
    {"emulation.boot_s", "s"},
    {"emulation.converge_s", "s"},
    {"emulation.bgp_updates", "count"},
    {"emulation.decision_reruns", "count"},
    {"emulation.spf_runs", "count"},
    {"emulation.lsa_floods", "count"},
    {"emulation.bgp_rounds", "count"},
    {"emulation.fib_entries", "count"},
    {"incident_s", "s"},
    {"analysis.model_s", "s"},
    {"analysis.predict_s", "s"},
    {"analysis.paths_s", "s"},
    {"analysis.hops", "count"},
    {"analysis.ns_per_hop", "ns/hop"},
    {"analysis.spf_runs", "count"},
    {"analysis.bgp_rounds", "count"},
    {"incr.diff_s", "s"},
    {"incr.dirty_devices", "count"},
    {"incr.reuse_ratio", "ratio"},
    {"ckpt.mb", "MB"},
    {"ckpt.warm_s", "s"},
    {"render.files", "count"},
    {"render.mb", "MB"},
    {"nidb.devices", "count"},
    {"exp.expand_s", "s"},
    {"exp.run_ms", "ms"},
    {"exp.run_p99_ms", "ms"},
    {"exp.report_ms", "ms"},
    {"exp.journal_ms", "ms"},
    {"exp.aggregate_s", "s"},
    {"exp.parallel_eff", "ratio"},
    {"obs.overhead_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: autonet_perfbench --workload nren-run|nren-edit|nren-analyze|"
               "campaign-sweep --seed N --seconds S --trace 0|1 --repo DIR --work DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.process_start = Clock::now();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--repo") {
      args.repo = value;
    } else if (key == "--work") {
      args.work = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.repo.empty() || args.work.empty() || !(args.seconds > 0)) {
    return usage();
  }
  Outcome (*workload)(const Args&, Tracer&) = nullptr;
  if (args.workload == "nren-run") workload = nren_run;
  if (args.workload == "nren-edit") workload = nren_edit;
  if (args.workload == "nren-analyze") workload = nren_analyze;
  if (args.workload == "campaign-sweep") workload = campaign_sweep;
  if (workload == nullptr) return usage();

  Tracer tracer(args.trace);
  Outcome out;
  try {
    out = workload(args, tracer);
    if (args.trace) {
      const auto path = args.work / "spans" /
                        (args.workload + "-seed" + std::to_string(args.seed) + ".json");
      tracer.write(path);
      std::printf("spans written to %s\n", path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  const std::vector<MetricDef>& defs = args.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  for (const MetricDef& def : defs) {
    const auto it = out.metrics.find(def.name);
    double value = it == out.metrics.end() ? 0.0 : it->second;
    if (!args.trace && it == out.metrics.end()) {
      out.check(false, std::string("end-to-end metric not measured: ") + def.name);
    }
    if (!std::isfinite(value)) {
      out.check(false, std::string("metric is not finite: ") + def.name);
      value = 0;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, value, def.unit);
    metrics += buf;
  }
  const bool correct = out.problems.empty() && out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", out.attempted, out.failed, metrics.c_str());
  return 0;
}
