// nren-run: fresh Workflow passes load → design → compile → render →
// lint → deploy → measure over the paper's §3.2 NREN model, the same
// work as `autonet run nren`. All three cost centres of the pipeline
// are on this path: all-pairs measurement, the quadratic lint rule and
// BGP convergence.
#include <cmath>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "crosscheck.hpp"
#include "emulation/network.hpp"
#include "measure/validate.hpp"
#include "obs/registry.hpp"
#include "render/renderer.hpp"
#include "topology/generators.hpp"
#include "verify/analysis/model.hpp"

namespace perfbench {

namespace {

namespace ac = autonet::core;
namespace an = autonet::verify::analysis;

constexpr const char* kName = "nren-run";
/// Cross-check sample: all destinations of this many random sources,
/// plus this many of the most distant pairs.
constexpr std::size_t kSampleSources = 8;
constexpr std::size_t kSampleFar = 2000;
/// One pass outlasts a run's --seconds, and the host's speed drifts
/// over the seconds a pass takes; two passes average it over twice as
/// long.
constexpr std::size_t kMinPasses = 2;

struct Pass {
  std::unique_ptr<ac::Workflow> wf;
  std::size_t op = 0;
  double build_s = 0;
  double run_s = 0;
  bool deployed = false;
  autonet::measure::ValidationReport validation;
  std::uint64_t pings = 0;
  std::uint64_t unreachable = 0;
};

// One pass. With `decompose`, validate_ospf + reachability stand in for
// Workflow::measure(), which does the same work.
Pass run_pass(const autonet::graph::Graph& input, Tracer& tracer, bool decompose) {
  Pass p;
  p.wf = std::make_unique<ac::Workflow>(nren_options());
  ac::Workflow& wf = *p.wf;
  p.op = tracer.next_op();
  const std::uint64_t reachable_before = global_counter("measure.reachable_pairs");
  std::uint64_t reachable = 0;
  Span pass(tracer, "pass");
  build_phases(wf, input, tracer);
  p.build_s = pass.elapsed();
  {
    Span s(tracer, "phase.deploy");
    wf.deploy();
  }
  p.deployed = wf.deploy_result().success;
  if (p.deployed) {
    Span s(tracer, "phase.measure");
    if (decompose) {
      {
        Span v(tracer, "measure.validate");
        p.validation = autonet::measure::validate_ospf(wf.network(), wf.anm());
      }
      Span r(tracer, "measure.reachability");
      reachable = wf.measurement().reachability().reachable_pairs();
    } else {
      wf.measure();
    }
  }
  p.run_s = pass.stop();
  if (p.deployed) {
    if (!decompose) {
      p.validation = wf.measure_report();
      reachable = global_counter("measure.reachable_pairs") - reachable_before;
    }
    const std::uint64_t n = wf.network().router_count();
    p.pings = n * (n - 1);
    p.unreachable = p.pings - reachable;
  }
  return p;
}

// The cheap per-pass checks and the pass's output digests. Returns false
// when the pass failed a check.
bool check_pass(Outcome& out, std::map<std::string, std::string>& seen, const Pass& p) {
  const ac::Workflow& wf = *p.wf;
  bool ok = out.check(p.deployed && wf.ok(), "deploy failed or degraded");
  ok = out.check(wf.deploy_result().convergence.converged, "BGP did not converge") && ok;
  ok = out.check(p.validation.ok, "validate_ospf: " + p.validation.to_string()) && ok;
  digest(out, seen, kName, "configs", digest_configs(wf.configs()));
  digest(out, seen, kName, "nidb", digest_text(wf.nidb().to_json(false)));
  digest(out, seen, kName, "lint", digest_text(wf.lint_report().to_json(false)));
  digest(out, seen, kName, "unreachable", std::to_string(p.unreachable));
  return ok;
}

// The oracle: a seeded sample of pairs traced through the pass's running
// emulation must match the offline predictor hop for hop, including the
// pairs that miss ping's 30-hop TTL. Returns the random rows' agreement
// (an unbiased sample, used for the mean path length).
TraceAgreement cross_check(Outcome& out, const autonet::graph::Graph& input,
                           Pass& p, std::uint64_t seed) {
  Rng rng(seed);
  const PairSample sample = sample_pairs(input, rng, kSampleSources, kSampleFar);
  const an::Model model = an::Model::from_nidb(p.wf->nidb());
  const an::Prediction prediction = an::predict(model);
  const TraceAgreement rows =
      compare_traces(p.wf->network(), model, prediction, sample.rows);
  const TraceAgreement far = compare_traces(p.wf->network(), model, prediction, sample.far);
  std::printf("check %s: %zu sampled pairs, %zu unreachable in both layers, "
              "%zu mismatches; %llu of %llu pings unreachable\n",
              kName, rows.pairs + far.pairs, rows.unreachable + far.unreachable,
              rows.mismatches + far.mismatches,
              static_cast<unsigned long long>(p.unreachable),
              static_cast<unsigned long long>(p.pings));
  bool ok = out.check(prediction.bgp_converged, "predictor: BGP did not converge");
  ok = out.check(rows.mismatches == 0, "emulation vs predictor: " + rows.first_mismatch) && ok;
  ok = out.check(far.mismatches == 0, "emulation vs predictor: " + far.first_mismatch) && ok;
  // The sampled pairs are distinct, so they cannot hold more unreachable
  // pairs than the full matrix measured.
  ok = out.check(rows.unreachable + far.unreachable <= p.unreachable,
                 "sample holds more unreachable pairs than the measured matrix") &&
       ok;
  if (!ok) ++out.failed;
  return rows;
}

}  // namespace

Outcome nren_run(const Args& args, Tracer& tracer) {
  Outcome out;
  autonet::topology::NrenOptions nren;
  nren.seed = args.seed;
  auto set_up = [&] {
    autonet::graph::Graph made = autonet::topology::make_nren_model(nren);
    (void)autonet::render::TemplateStore::builtins();
    return made;
  };
  SetupClock setups(args.process_start);
  autonet::graph::Graph input;
  setups.burst(kSetups, kSetupBurstSeconds, [&] { input = set_up(); });

  std::map<std::string, std::string> seen;
  if (!args.trace) {
    std::vector<double> builds;
    Pass last;
    const std::vector<double> times = closed_loop(args.seconds, kMinPasses, [&] {
      last.wf.reset();  // one network alive at a time
      last = run_pass(input, tracer, false);
      if (out.attempted++ == 0) out.set("peak_rss_mb", peak_rss_mb());
      builds.push_back(last.build_s);
      if (!check_pass(out, seen, last)) ++out.failed;
      setups.burst(1, kSetupBurstSeconds, [&] { (void)set_up(); });
      return last.run_s;
    });
    out.set("setup_s", setups.median());
    out.set("build_s", median(builds));
    loop_metrics(out, times, 1);
    (void)cross_check(out, input, last, args.seed);
    return out;
  }

  // Traced run: an untraced pass, a pass with the library's telemetry
  // switched off, then the traced pass. Decomposition calls run beside
  // the traced pass, outside its span.
  auto checked_pass = [&](Tracer& t, bool decompose) {
    Pass p = run_pass(input, t, decompose);
    ++out.attempted;
    if (!check_pass(out, seen, p)) ++out.failed;
    return p;
  };
  Tracer off(false);
  const double plain_s = checked_pass(off, false).run_s;
  autonet::obs::Registry::global().set_enabled(false);
  const double obs_off_s = checked_pass(off, false).run_s;
  autonet::obs::Registry::global().set_enabled(true);
  Pass p = checked_pass(tracer, true);
  out.set("obs.overhead_frac", plain_s / obs_off_s - 1);
  out.set("trace.overhead_frac", p.run_s / plain_s - 1);
  phase_metrics(out, tracer, p.op);
  double phases = 0;
  for (const std::string& phase : kPhases) phases += out.metrics["phase." + phase + "_s"];
  std::printf("phases sum to %.3f s: traced pass %.3f s, untraced %.3f s\n", phases, p.run_s,
              plain_s);
  out.check(std::abs(phases / p.run_s - 1) <= 0.1, "phase spans do not cover the pass");

  const ac::Workflow& wf = *p.wf;
  tracer.next_op();
  lint_metrics(out,
               lint_decomposition(tracer, wf.nidb(), autonet::verify::RuleRegistry::builtin()));
  boot_metrics(out, tracer, wf.nidb(), wf.configs());
  emulation_counters(out, p.wf->network());
  output_sizes(out, wf.nidb(), &wf.configs());

  const double reach_s = tracer.total("measure.reachability", p.op);
  out.set("measure.reachability_s", reach_s);
  out.set("measure.validate_s", tracer.total("measure.validate", p.op));
  out.set("measure.pings", static_cast<double>(p.pings));
  out.set("measure.unreachable", static_cast<double>(p.unreachable));
  const TraceAgreement rows = cross_check(out, input, p, args.seed);
  const double mean_hops = static_cast<double>(rows.hops) / static_cast<double>(rows.pairs);
  out.set("measure.mean_hops", mean_hops);
  out.set("measure.ns_per_hop", reach_s * 1e9 / (static_cast<double>(p.pings) * mean_hops));
  return out;
}

}  // namespace perfbench
