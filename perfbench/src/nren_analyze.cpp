// nren-analyze: `autonet analyze` on the NREN model — load → design →
// compile, then run_lint with RuleRegistry::with_analysis(). Each
// iteration analyses a distinct seeded variant (one intra-AS link cost
// changed), so the process-global FibCache never serves an iteration,
// just as it never serves an `autonet analyze` invocation. It is the
// only workload on verify/analysis and its all-pairs path table.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <tuple>
#include <utility>

#include "common.hpp"
#include "crosscheck.hpp"
#include "emulation/network.hpp"
#include "obs/registry.hpp"
#include "render/renderer.hpp"
#include "topology/generators.hpp"
#include "verify/analysis/cache.hpp"
#include "verify/analysis/workspace.hpp"

namespace perfbench {

namespace {

namespace ac = autonet::core;
namespace ag = autonet::graph;
namespace an = autonet::verify::analysis;
namespace av = autonet::verify;

constexpr const char* kName = "nren-analyze";
constexpr std::size_t kSampleSources = 8;
constexpr std::size_t kSampleFar = 2000;
/// One analysis takes longer than a run's --seconds, and a single one is
/// at the mercy of the host's load while it runs; the median of three
/// is not.
constexpr std::size_t kMinAnalyses = 3;

/// Seeded variants of one base graph, each with a different intra-AS
/// link's ospf_cost changed.
class Variants {
 public:
  Variants(ag::Graph base, std::uint64_t seed)
      : base_(std::move(base)), rng_(seed), edges_(intra_as_edges(base_)) {
    std::shuffle(edges_.begin(), edges_.end(), rng_);
  }
  ag::Graph next() {
    ag::Graph g = base_;
    change_ospf_cost(g, edges_.at(next_++), rng_);
    return g;
  }

 private:
  ag::Graph base_;
  Rng rng_;
  std::vector<ag::EdgeId> edges_;
  std::size_t next_ = 0;
};

struct Analysis {
  std::unique_ptr<ac::Workflow> wf;
  std::size_t op = 0;
  double seconds = 0;
  std::size_t findings = 0;
  LintSplit split;            // the decomposed run only
  std::string report_digest;  // the undecomposed run only
};

// One analysis. With `decompose`, the lint decomposition (bgp-asym-session
// alone, then every other rule) stands in for the single run_lint.
Analysis run_analysis(const ag::Graph& input, Tracer& tracer, bool decompose) {
  Analysis a;
  a.op = tracer.next_op();
  Span op(tracer, "analyze");
  a.wf = std::make_unique<ac::Workflow>(nren_options());
  {
    Span s(tracer, "phase.load");
    a.wf->load(input);
  }
  {
    Span s(tracer, "phase.design");
    a.wf->design();
  }
  {
    Span s(tracer, "phase.compile");
    a.wf->compile();
  }
  if (decompose) {
    a.split = lint_decomposition(tracer, a.wf->nidb(), av::RuleRegistry::with_analysis());
    a.seconds = op.stop();
    a.findings = a.split.findings;
    return a;
  }
  av::LintInput lint;
  lint.nidb = &a.wf->nidb();
  lint.templates = &autonet::render::TemplateStore::builtins();
  av::LintOptions options;
  options.jobs = kLintJobs;
  const av::Report report = av::run_lint(lint, options, av::RuleRegistry::with_analysis());
  a.seconds = op.stop();
  a.findings = report.findings.size();
  a.report_digest = digest_text(report.to_json(false));
  return a;
}

// The oracle: the variant's emulation, booted from its rendered configs,
// traces a seeded sample of pairs exactly as the predicted paths say.
// Runs on its own thread with a private telemetry registry, as campaign
// runs do, so variants are checked side by side.
struct VariantCheck {
  std::string nidb;
  std::string configs;
  bool converged = false;
  TraceAgreement rows;
  TraceAgreement far;
};

VariantCheck check_variant(const ag::Graph& input, std::uint64_t seed) {
  autonet::obs::Registry registry;
  const autonet::obs::RegistryScope scope(registry);
  ac::Workflow wf(nren_options());
  wf.use_telemetry(&registry);
  wf.load(input).design().compile().render();
  VariantCheck c;
  c.nidb = digest_text(wf.nidb().to_json(false));
  c.configs = digest_configs(wf.configs());
  auto net = autonet::emulation::EmulatedNetwork::from_nidb(wf.nidb(), wf.configs());
  c.converged = net.start().converged;
  const an::Workspace ws(wf.nidb());
  Rng rng(seed);
  const PairSample sample = sample_pairs(input, rng, kSampleSources, kSampleFar);
  c.rows = compare_traces(net, ws.model(), *ws.baseline(), sample.rows);
  c.far = compare_traces(net, ws.model(), *ws.baseline(), sample.far);
  return c;
}

// Checks every analysed variant; returns how many failed.
std::size_t check_variants(Outcome& out, std::map<std::string, std::string>& seen,
                           const std::vector<ag::Graph>& inputs, std::uint64_t seed) {
  std::vector<std::future<VariantCheck>> checks;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    checks.push_back(std::async(std::launch::async, check_variant, std::cref(inputs[i]),
                                seed + i));
  }
  std::size_t failed = 0;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const VariantCheck c = checks[i].get();
    const std::string prefix = "variant" + std::to_string(i);
    digest(out, seen, kName, prefix + ".nidb", c.nidb);
    digest(out, seen, kName, prefix + ".configs", c.configs);
    std::printf("check %s %s: %zu sampled pairs, %zu unreachable in both layers, "
                "%zu mismatches\n",
                kName, prefix.c_str(), c.rows.pairs + c.far.pairs,
                c.rows.unreachable + c.far.unreachable, c.rows.mismatches + c.far.mismatches);
    bool ok = out.check(c.converged, prefix + ": emulation did not converge");
    ok = out.check(c.rows.mismatches == 0, prefix + ": " + c.rows.first_mismatch) && ok;
    ok = out.check(c.far.mismatches == 0, prefix + ": " + c.far.first_mismatch) && ok;
    if (!ok) ++failed;
  }
  return failed;
}

}  // namespace

Outcome nren_analyze(const Args& args, Tracer& tracer) {
  Outcome out;
  autonet::topology::NrenOptions nren;
  nren.seed = args.seed;
  auto set_up = [&] {
    auto made = std::make_unique<Variants>(autonet::topology::make_nren_model(nren), args.seed);
    ag::Graph first_variant = made->next();
    (void)autonet::render::TemplateStore::builtins();
    return std::make_pair(std::move(made), std::move(first_variant));
  };
  SetupClock setups(args.process_start);
  std::unique_ptr<Variants> variants;
  ag::Graph first;
  setups.burst(kSetups, kSetupBurstSeconds, [&] { std::tie(variants, first) = set_up(); });

  std::map<std::string, std::string> seen;
  if (!args.trace) {
    std::vector<ag::Graph> inputs;
    const std::vector<double> times = closed_loop(args.seconds, kMinAnalyses, [&] {
      inputs.push_back(inputs.empty() ? first : variants->next());
      const Analysis a = run_analysis(inputs.back(), tracer, false);
      if (out.attempted++ == 0) out.set("peak_rss_mb", peak_rss_mb());
      digest(out, seen, kName, "variant" + std::to_string(inputs.size() - 1) + ".analysis",
             a.report_digest);
      setups.burst(1, kSetupBurstSeconds, [&] { (void)set_up(); });
      return a.seconds;
    });
    out.set("setup_s", setups.median());
    out.set("build_s", median(times));
    loop_metrics(out, times, 1);
    out.failed += check_variants(out, seen, inputs, args.seed);
    return out;
  }

  // Traced run: the first variant untraced, with the library's telemetry
  // off, then traced with the lint decomposition standing in for
  // run_lint — the FibCache cleared before each so none is served — then
  // the analysis layer's own calls on a fresh workspace beside them.
  Tracer off(false);
  const Analysis plain = run_analysis(first, off, false);
  digest(out, seen, kName, "variant0.analysis", plain.report_digest);
  an::FibCache::global().clear();
  autonet::obs::Registry::global().set_enabled(false);
  const Analysis obs_off = run_analysis(first, off, false);
  autonet::obs::Registry::global().set_enabled(true);
  digest(out, seen, kName, "variant0.analysis", obs_off.report_digest);
  an::FibCache::global().clear();
  const Analysis traced = run_analysis(first, tracer, true);
  an::FibCache::global().clear();
  out.attempted = 3;
  out.set("obs.overhead_frac", plain.seconds / obs_off.seconds - 1);
  out.check(traced.findings == plain.findings, "decomposed lint found " +
                                                   std::to_string(traced.findings) +
                                                   " findings, run_lint " +
                                                   std::to_string(plain.findings));
  out.set("trace.overhead_frac", traced.seconds / plain.seconds - 1);
  phase_metrics(out, tracer, traced.op);
  lint_metrics(out, traced.split);
  output_sizes(out, traced.wf->nidb(), nullptr);
  tracer.next_op();
  {
    const an::Workspace ws(traced.wf->nidb());
    {
      Span s(tracer, "analysis.model");
      (void)ws.model();
      out.set("analysis.model_s", s.stop());
    }
    {
      Span s(tracer, "analysis.predict");
      (void)ws.baseline();
      out.set("analysis.predict_s", s.stop());
    }
    Span s(tracer, "analysis.paths");
    const auto& paths = ws.baseline_paths();
    const double paths_s = s.stop();
    std::size_t hops = 0;
    for (const auto& row : paths) {
      for (const an::Path& path : row) hops += path.hops.size();
    }
    out.set("analysis.paths_s", paths_s);
    out.set("analysis.hops", static_cast<double>(hops));
    out.set("analysis.ns_per_hop", paths_s * 1e9 / static_cast<double>(hops));
    out.set("analysis.spf_runs", static_cast<double>(ws.stats().spf_runs));
    out.set("analysis.bgp_rounds", static_cast<double>(ws.stats().bgp_rounds));
  }
  if (check_variants(out, seen, {first}, args.seed) != 0) out.failed = 3;
  return out;
}

}  // namespace perfbench
