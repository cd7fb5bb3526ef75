// campaign-sweep: CampaignRunner over the matrix of
// examples/campaigns/small_internet_sweep.campaign (ibgp × backoff × dns)
// with its repetitions raised, on two workers. Every run rides through a
// seeded link flap and probes reachability and one seeded traceroute. On
// a 14-router network per-run fixed costs — boots, reconvergence after
// the incident, small reachability matrices and the runner's pool —
// dominate, unlike the nren workloads.
//
// The timed campaigns keep their results in memory. The journal and the
// run reports fsync once or twice per run, so with them on a campaign
// times the disk's flush latency, which on a shared host moves by more
// than the benchmark's bounds. One untimed campaign with both on, as
// `autonet exp run --out DIR --jobs 2` runs it, warms the process up and
// is the reference of the checks; the traced run times the journal and
// report writes on their own.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string_view>

#include "common.hpp"
#include "emulation/incident.hpp"
#include "emulation/network.hpp"
#include "experiment/aggregate.hpp"
#include "experiment/campaign.hpp"
#include "experiment/runner.hpp"
#include "measure/validate.hpp"
#include "render/renderer.hpp"
#include "verify/analysis/model.hpp"

namespace perfbench {

namespace {

namespace ac = autonet::core;
namespace ae = autonet::experiment;
namespace ag = autonet::graph;
namespace an = autonet::verify::analysis;
namespace fs = std::filesystem;

constexpr const char* kName = "campaign-sweep";
constexpr int kRepetitions = 6;  // the example's 3, doubled: 72 runs
constexpr int kWorkers = 2;

struct Input {
  ae::CampaignSpec spec;
  std::vector<ae::RunSpec> matrix;
  std::string flap_a;
  std::string flap_b;
};

// The example campaign with the seed choosing the campaign seed, the
// flapped link and the traceroute pair.
Input make_input(const Args& args) {
  Input in;
  in.spec = ae::load_campaign_file(
      (args.repo / "examples" / "campaigns" / "small_internet_sweep.campaign").string());
  in.spec.repetitions = kRepetitions;
  in.spec.seed = args.seed;
  const ag::Graph g = ae::resolve_topology(in.spec.topology);
  std::vector<std::string> routers;
  for (const ag::NodeId n : g.nodes()) {
    const std::string* type = g.node_attr(n, "device_type").as_string();
    if (type != nullptr && *type == "router") routers.push_back(g.node_name(n));
  }
  std::vector<std::pair<std::string, std::string>> links;
  for (const ag::EdgeId e : g.edges()) {
    const std::string& a = g.node_name(g.edge_src(e));
    const std::string& b = g.node_name(g.edge_dst(e));
    if (std::count(routers.begin(), routers.end(), a) != 0 &&
        std::count(routers.begin(), routers.end(), b) != 0) {
      links.emplace_back(a, b);
    }
  }
  Rng rng(args.seed);
  const auto& link = links[std::uniform_int_distribution<std::size_t>(0, links.size() - 1)(rng)];
  in.flap_a = link.first;
  in.flap_b = link.second;
  in.spec.incident = {{autonet::emulation::IncidentAction::kFailLink, in.flap_a, in.flap_b},
                      {autonet::emulation::IncidentAction::kRestoreLink, in.flap_a, in.flap_b}};
  std::shuffle(routers.begin(), routers.end(), rng);
  in.spec.probes = {{"reachability", "", ""}, {"traceroute", routers[0], routers[1]}};
  in.matrix = ae::expand(in.spec);
  return in;
}

/// Per-run load…lint times inside the runner's worker pool, read at the
/// library's cooperative checkpoints "phase.load" and "phase.deploy"
/// through RunControl::trip_hook. `autonet exp run` attaches a
/// RunControl too, so the hook adds a clock read per checkpoint and
/// changes no code path.
class BuildClock {
 public:
  BuildClock() {
    control.trip_hook = [this](std::string_view where) {
      thread_local Clock::time_point load_start;
      thread_local bool loading = false;
      if (where == "phase.load") {
        load_start = Clock::now();
        loading = true;
      } else if (where == "phase.deploy" && loading) {
        loading = false;
        const double seconds = since(load_start);
        const std::lock_guard<std::mutex> lock(mutex_);
        builds_.push_back(seconds);
      }
      return false;
    };
  }
  BuildClock(const BuildClock&) = delete;
  BuildClock& operator=(const BuildClock&) = delete;

  [[nodiscard]] std::vector<double> builds() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return builds_;
  }

  ac::RunControl control;

 private:
  std::mutex mutex_;
  std::vector<double> builds_;
};

struct Campaign {
  ae::CampaignResult result;
  double seconds = 0;
  std::string csv;
  std::string reports;  // digest over every run report, by file name
};

// One `autonet exp run --jobs N`: the runner, then the aggregate as CSV.
// With an `out` directory the journal, the run reports and aggregate.csv
// are written under it, as `--out DIR` does; without one the campaign
// writes nothing.
Campaign run_campaign(const ae::CampaignSpec& spec, const fs::path& out, int jobs,
                      ac::RunControl* control, Tracer& tracer) {
  ae::RunnerOptions options;
  options.jobs = jobs;
  options.control = control;
  if (!out.empty()) {
    fs::create_directories(out);
    options.journal_path = (out / "journal.jsonl").string();
    options.report_dir = (out / "reports").string();
  }
  Campaign c;
  Span op(tracer, "campaign");
  ae::CampaignRunner runner(spec, options);
  c.result = runner.run();
  c.csv = ae::to_csv(ae::aggregate(c.result.results));
  if (!out.empty()) {
    std::ofstream file(out / "aggregate.csv", std::ios::binary);
    file << c.csv;
    if (!file.flush()) throw std::runtime_error("cannot write aggregate.csv");
  }
  c.seconds = op.stop();
  if (out.empty()) return c;
  std::vector<fs::path> reports;
  for (const auto& entry : fs::directory_iterator(options.report_dir)) {
    reports.push_back(entry.path());
  }
  std::sort(reports.begin(), reports.end());
  std::uint64_t h = fnv1a("");
  for (const fs::path& path : reports) {
    std::ifstream file(path, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(file)),
                           std::istreambuf_iterator<char>());
    h = fnv1a(text, fnv1a(path.filename().string(), h));
  }
  c.reports = hex(h);
  return c;
}

// Every run of the matrix completed, ok and with its incident ok; the
// campaign's digests match the run's earlier campaigns. Returns the
// number of failed runs.
std::size_t check_campaign(Outcome& out, std::map<std::string, std::string>& seen,
                           const Input& in, const Campaign& c) {
  std::size_t failed = in.matrix.size() - std::min(in.matrix.size(), c.result.results.size());
  out.check(failed == 0, "campaign completed " + std::to_string(c.result.results.size()) +
                             " of " + std::to_string(in.matrix.size()) + " runs");
  for (const ae::RunResult& r : c.result.results) {
    const bool ok = out.check(r.ok, "run " + r.id + " failed: " + r.error) &&
                    out.check(r.metric("incident.ok") == 1, "run " + r.id + ": incident not ok");
    if (!ok) ++failed;
  }
  digest(out, seen, kName, "aggregate.csv", digest_text(c.csv));
  if (!c.reports.empty()) digest(out, seen, kName, "reports", c.reports);
  return failed;
}

std::size_t reached_pairs(const an::Model& model, const an::Prediction& prediction,
                          std::vector<std::vector<bool>>* reached) {
  std::size_t count = 0;
  const auto& routers = model.routers();
  for (std::size_t s = 0; s < routers.size(); ++s) {
    for (std::size_t d = 0; d < routers.size(); ++d) {
      if (s == d) continue;
      const bool r =
          an::trace_to_router(model, prediction, routers[s].hostname, routers[d].hostname)
              .reached;
      if (reached != nullptr) (*reached)[s][d] = r;
      if (r) ++count;
    }
  }
  return count;
}

// The oracle for the incident: per matrix cell, the offline predictor's
// what-if for the flapped link loses exactly the pairs the emulated link
// failure lost, from the same baseline.
bool check_incident(Outcome& out, const Input& in, const ae::CampaignResult& result) {
  struct Expect {
    double baseline = 0;
    double lost = 0;
  };
  std::map<std::string, Expect> cells;
  const ag::Graph g = ae::resolve_topology(in.spec.topology);
  bool ok = true;
  for (const ae::RunSpec& run : in.matrix) {
    std::string cell;
    for (const auto& [key, value] : run.axis_values) cell += key + "=" + value + ",";
    if (cells.count(cell) == 0) {
      ac::Workflow wf(run.workflow);
      wf.load(g).design().compile();
      const an::Model model = an::Model::from_nidb(wf.nidb());
      std::set<autonet::addressing::Ipv4Prefix> failed;
      for (const an::Link& link : model.links()) {
        if (std::count(link.members.begin(), link.members.end(), in.flap_a) != 0 &&
            std::count(link.members.begin(), link.members.end(), in.flap_b) != 0) {
          failed.insert(link.subnet);
        }
      }
      ok = out.check(failed.size() == 1, "flapped link " + in.flap_a + "-" + in.flap_b +
                                             " not found in the model") &&
           ok;
      const std::size_t n = model.size();
      std::vector<std::vector<bool>> before(n, std::vector<bool>(n, false));
      std::vector<std::vector<bool>> after(n, std::vector<bool>(n, false));
      Expect e;
      e.baseline = static_cast<double>(reached_pairs(model, an::predict(model), &before));
      (void)reached_pairs(model, an::predict(model, failed), &after);
      for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t d = 0; d < n; ++d) {
          if (before[s][d] && !after[s][d]) e.lost += 1;
        }
      }
      cells[cell] = e;
    }
    const Expect& e = cells[cell];
    const auto it = std::find_if(result.results.begin(), result.results.end(),
                                 [&](const ae::RunResult& r) { return r.id == run.id; });
    if (it == result.results.end()) continue;  // reported by check_campaign
    ok = out.check(it->metric("incident.baseline_pairs") == e.baseline &&
                       it->metric("incident.pairs_lost_max") == e.lost,
                   "run " + run.id + ": incident lost " +
                       std::to_string(it->metric("incident.pairs_lost_max")) + " of " +
                       std::to_string(it->metric("incident.baseline_pairs")) +
                       " pairs, predictor what-if " + std::to_string(e.lost) + " of " +
                       std::to_string(e.baseline)) &&
         ok;
  }
  std::printf("check %s: flapped %s-%s, %zu cells checked against the predictor\n", kName,
              in.flap_a.c_str(), in.flap_b.c_str(), cells.size());
  return ok;
}

// The oracles that need extra campaigns: the one-worker run of the same
// spec aggregates to the same CSV, and the incident matches the predictor.
bool check_after(Outcome& out, const Input& in, const Campaign& reference,
                 const fs::path& dir) {
  Tracer off(false);
  const Campaign serial = run_campaign(in.spec, dir, 1, nullptr, off);
  bool ok = out.check(serial.csv == reference.csv,
                      "aggregate CSV differs between 1 and 2 workers");
  ok = out.check(serial.reports == reference.reports,
                 "run reports differ between 1 and 2 workers") &&
       ok;
  return check_incident(out, in, reference.result) && ok;
}

// One matrix run by hand, phase by phase, as execute_run does it.
std::unique_ptr<ac::Workflow> run_by_hand(const Input& in, const ag::Graph& g,
                                          Tracer& tracer, double* seconds) {
  const ae::RunSpec& run = in.matrix.front();
  auto wf = std::make_unique<ac::Workflow>(run.workflow);
  tracer.next_op();
  Span op(tracer, "run");
  build_phases(*wf, g, tracer);
  {
    Span s(tracer, "phase.deploy");
    wf->deploy();
  }
  {
    Span s(tracer, "phase.measure");
    {
      Span v(tracer, "measure.validate");
      (void)autonet::measure::validate_ospf(wf->network(), wf->anm());
    }
    Span r(tracer, "measure.reachability");
    (void)wf->measurement().reachability();
  }
  {
    Span s(tracer, "exp.probes");
    (void)wf->measurement().reachability();
    (void)wf->measurement().traceroute(in.spec.probes[1].src, in.spec.probes[1].dst);
  }
  {
    Span s(tracer, "incident");
    autonet::emulation::IncidentRunner incident(wf->network());
    (void)incident.run(in.spec.incident);
  }
  *seconds = op.stop();
  return wf;
}

}  // namespace

Outcome campaign_sweep(const Args& args, Tracer& tracer) {
  Outcome out;
  const ScratchDir scratch(args.work / "tmp");
  auto set_up = [&] {
    Input made = make_input(args);
    (void)autonet::render::TemplateStore::builtins();
    return made;
  };
  SetupClock setups(args.process_start);
  Input in;
  setups.burst(kSetups, kSetupBurstSeconds, [&] { in = set_up(); });

  std::map<std::string, std::string> seen;
  if (!args.trace) {
    const Campaign persisted =
        run_campaign(in.spec, scratch.path() / "campaign", kWorkers, nullptr, tracer);
    out.set("peak_rss_mb", peak_rss_mb());
    out.attempted += in.matrix.size();
    out.failed += check_campaign(out, seen, in, persisted);
    BuildClock clock;
    const std::vector<double> times = closed_loop(args.seconds, 1, [&] {
      const Campaign c = run_campaign(in.spec, {}, kWorkers, &clock.control, tracer);
      out.attempted += in.matrix.size();
      out.failed += check_campaign(out, seen, in, c);
      setups.burst(1, kSetupBurstSeconds, [&] { (void)set_up(); });
      return c.seconds;
    });
    out.set("setup_s", setups.median());
    out.set("build_s", median(clock.builds()));
    loop_metrics(out, times, in.matrix.size());
    if (!check_after(out, in, persisted, scratch.path() / "serial")) ++out.failed;
    return out;
  }

  // Traced run: the runner's pieces one by one — expansion, serial
  // execute_run with and without a report, journal appends, aggregation —
  // then one parallel campaign and one run decomposed by hand.
  std::vector<double> expand_s;
  for (int i = 0; i < 5; ++i) {
    Span s(tracer, "exp.expand");
    (void)ae::expand(in.spec);
    expand_s.push_back(s.stop());
  }
  out.set("exp.expand_s", median(expand_s));
  std::vector<double> bare;
  std::vector<double> reported;
  std::vector<ae::RunResult> results;
  const fs::path reports = scratch.path() / "reports";
  fs::create_directories(reports);
  for (const ae::RunSpec& run : in.matrix) {
    tracer.next_op();
    {
      Span s(tracer, "exp.run");
      (void)ae::CampaignRunner::execute_run(run, in.spec);
      bare.push_back(s.stop());
    }
    Span s(tracer, "exp.run+report");
    results.push_back(ae::CampaignRunner::execute_run(
        run, in.spec, nullptr, "", nullptr,
        (reports / (ae::checkpoint_dir_name(run.id) + ".report.json")).string()));
    reported.push_back(s.stop());
  }
  out.set("exp.run_ms", median(bare) * 1e3);
  out.set("exp.run_p99_ms", percentile(bare, 0.99) * 1e3);
  out.set("exp.report_ms", (median(reported) - median(bare)) * 1e3);
  std::vector<double> appends;
  {
    ae::Journal journal((scratch.path() / "journal.jsonl").string());
    for (const ae::RunResult& r : results) {
      Span s(tracer, "exp.journal");
      journal.append(r);
      appends.push_back(s.stop());
    }
  }
  out.set("exp.journal_ms", median(appends) * 1e3);
  std::string serial_csv;
  {
    Span s(tracer, "exp.aggregate");
    serial_csv = ae::to_csv(ae::aggregate(results));
    out.set("exp.aggregate_s", s.stop());
  }
  double serial_s = 0;
  for (const double t : reported) serial_s += t;
  for (const double t : appends) serial_s += t;

  tracer.next_op();
  const Campaign parallel =
      run_campaign(in.spec, scratch.path() / "campaign", kWorkers, nullptr, tracer);
  out.attempted = results.size() + in.matrix.size();
  for (const ae::RunResult& r : results) {
    if (!out.check(r.ok, "serial run " + r.id + " failed: " + r.error)) ++out.failed;
  }
  out.failed += check_campaign(out, seen, in, parallel);
  out.check(serial_csv == parallel.csv, "aggregate CSV differs between serial execute_run "
                                        "and the parallel campaign");
  out.set("exp.parallel_eff", (static_cast<double>(parallel.result.results.size()) /
                               parallel.seconds) /
                                  (kWorkers * static_cast<double>(results.size()) / serial_s));

  // One run by hand: five untraced, five traced, for the tracing overhead.
  const ag::Graph g = ae::resolve_topology(in.matrix.front().topology);
  Tracer off(false);
  std::vector<double> plain;
  std::vector<double> traced;
  std::unique_ptr<ac::Workflow> wf;
  for (int i = 0; i < 5; ++i) {
    double seconds = 0;
    (void)run_by_hand(in, g, off, &seconds);
    plain.push_back(seconds);
    wf = run_by_hand(in, g, tracer, &seconds);
    traced.push_back(seconds);
  }
  const std::size_t last_op = tracer.op();
  out.set("trace.overhead_frac", median(traced) / median(plain) - 1);
  phase_metrics(out, tracer, last_op);
  out.set("measure.reachability_s", tracer.total("measure.reachability", last_op));
  out.set("measure.validate_s", tracer.total("measure.validate", last_op));
  out.set("incident_s", tracer.total("incident", last_op));
  const std::size_t n = wf->network().router_count();
  out.set("measure.pings", static_cast<double>(n * (n - 1)));
  out.set("measure.unreachable", static_cast<double>(
                                     n * (n - 1) - wf->measurement().reachability().reachable_pairs()));
  emulation_counters(out, wf->network());
  output_sizes(out, wf->nidb(), &wf->configs());
  boot_metrics(out, tracer, wf->nidb(), wf->configs());
  lint_metrics(out,
               lint_decomposition(tracer, wf->nidb(), autonet::verify::RuleRegistry::builtin()));
  if (!check_after(out, in, parallel, scratch.path() / "serial")) ++out.failed;
  return out;
}

}  // namespace perfbench
