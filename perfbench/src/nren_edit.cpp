// nren-edit: a seeded chain of single intra-AS ospf_cost edits on the
// NREN model, each built load → lint with incremental_from(the previous
// edit's checkpoint) and checkpoint_to(its own). It is the only workload
// on the incremental and checkpoint layers: every edit reads one
// checkpoint and writes the next. It never deploys or measures.
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>

#include "common.hpp"
#include "incremental/delta.hpp"
#include "obs/registry.hpp"
#include "render/config_tree.hpp"
#include "render/renderer.hpp"
#include "topology/generators.hpp"

namespace perfbench {

namespace {

namespace ac = autonet::core;
namespace ag = autonet::graph;
namespace fs = std::filesystem;

constexpr const char* kName = "nren-edit";

/// The seeded edit chain: each call returns the previous graph with one
/// intra-AS link's ospf_cost changed.
class EditChain {
 public:
  EditChain(const ag::Graph& base, std::uint64_t seed)
      : graph_(base), rng_(seed), intra_(intra_as_edges(base)) {}
  const ag::Graph& next() {
    change_ospf_cost(
        graph_, intra_[std::uniform_int_distribution<std::size_t>(0, intra_.size() - 1)(rng_)],
        rng_);
    return graph_;
  }

 private:
  ag::Graph graph_;
  Rng rng_;
  std::vector<ag::EdgeId> intra_;
};

struct Digests {
  std::string configs;
  std::string nidb;
  std::string lint;
  bool operator==(const Digests&) const = default;
};

Digests digests_of(const ac::Workflow& wf) {
  return {digest_configs(wf.configs()), digest_text(wf.nidb().to_json(false)),
          digest_text(wf.lint_report().to_json(false))};
}

struct Edit {
  ag::Graph input;
  std::unique_ptr<ac::Workflow> wf;
  std::size_t op = 0;
  double seconds = 0;
};

// One edit: `input` built incrementally from `from`, checkpointed to `to`.
Edit run_edit(const ag::Graph& input, const fs::path& from, const fs::path& to,
              Tracer& tracer) {
  Edit e;
  e.input = input;
  e.op = tracer.next_op();
  Span op(tracer, "edit");
  e.wf = std::make_unique<ac::Workflow>(nren_options());
  e.wf->incremental_from(from.string());
  e.wf->checkpoint_to(to.string());
  build_phases(*e.wf, input, tracer);
  e.seconds = op.stop();
  return e;
}

// The oracle: a from-scratch build of the same graph yields the same
// NIDB, configs and lint report as the incremental edit. Each build runs
// on its own thread with a private telemetry registry, as campaign runs
// do, so edits are checked side by side.
Digests scratch_digests(const ag::Graph& input) {
  autonet::obs::Registry registry;
  const autonet::obs::RegistryScope scope(registry);
  Tracer off(false);
  ac::Workflow wf(nren_options());
  wf.use_telemetry(&registry);
  build_phases(wf, input, off);
  return digests_of(wf);
}

// Checks every edit against its from-scratch build; returns how many
// differ.
std::size_t check_edits(Outcome& out, const std::vector<ag::Graph>& inputs,
                        const std::vector<Digests>& incremental) {
  std::vector<std::future<Digests>> scratch;
  for (const ag::Graph& input : inputs) {
    scratch.push_back(std::async(std::launch::async, scratch_digests, std::cref(input)));
  }
  std::size_t failed = 0;
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    if (!out.check(scratch[i].get() == incremental[i],
                   "edit " + std::to_string(i) + " differs from a from-scratch build")) {
      ++failed;
    }
  }
  return failed;
}

void print_digests(Outcome& out, std::map<std::string, std::string>& seen,
                   const std::string& prefix, const Digests& d) {
  digest(out, seen, kName, prefix + ".configs", d.configs);
  digest(out, seen, kName, prefix + ".nidb", d.nidb);
  digest(out, seen, kName, prefix + ".lint", d.lint);
}

}  // namespace

Outcome nren_edit(const Args& args, Tracer& tracer) {
  Outcome out;
  const ScratchDir scratch(args.work / "tmp");
  autonet::topology::NrenOptions nren;
  nren.seed = args.seed;
  ag::Graph base;
  fs::path base_dir;
  int setups = 0;
  Tracer off(false);
  // A set-up builds a checkpoint in seconds, so it runs in one burst
  // only, before the first edit.
  SetupClock setup_clock(args.process_start);
  setup_clock.burst(kSetups, kSetupBurstSeconds, [&] {
    if (!base_dir.empty()) fs::remove_all(base_dir);
    base = autonet::topology::make_nren_model(nren);
    (void)autonet::render::TemplateStore::builtins();
    base_dir = scratch.path() / ("base" + std::to_string(setups++));
    ac::Workflow wf(nren_options());
    wf.checkpoint_to(base_dir.string());
    build_phases(wf, base, off);
  });
  out.set("setup_s", setup_clock.median());

  EditChain chain(base, args.seed);
  std::map<std::string, std::string> seen;
  if (!args.trace) {
    std::vector<ag::Graph> inputs;
    std::vector<Digests> results;
    fs::path from = base_dir;
    const std::vector<double> times = closed_loop(args.seconds, 1, [&] {
      const std::size_t i = results.size();
      const fs::path to = scratch.path() / ("edit" + std::to_string(i));
      Edit e = run_edit(chain.next(), from, to, tracer);
      if (out.attempted++ == 0) out.set("peak_rss_mb", peak_rss_mb());
      std::printf("edit %zu: %s, %zu dirty devices, %.3f s\n", i,
                  e.wf->incremental_report().mode.c_str(),
                  e.wf->incremental_report().plan.dirty_devices.size(), e.seconds);
      results.push_back(digests_of(*e.wf));
      print_digests(out, seen, "edit" + std::to_string(i), results.back());
      inputs.push_back(std::move(e.input));
      // The next edit chains off `to`; `from` is spent.
      fs::remove_all(from);
      from = to;
      return e.seconds;
    });
    out.set("build_s", median(times));
    loop_metrics(out, times, 1);
    out.failed += check_edits(out, inputs, results);
    return out;
  }

  // Traced run: the same first edit three times from the base checkpoint
  // (untraced, library telemetry off, traced), then the decomposition
  // calls beside it.
  const ag::Graph& input = chain.next();
  double plain_s = 0;
  double obs_off_s = 0;
  {
    Edit e = run_edit(input, base_dir, scratch.path() / "plain", off);
    plain_s = e.seconds;
    print_digests(out, seen, "edit0", digests_of(*e.wf));
  }
  {
    autonet::obs::Registry::global().set_enabled(false);
    Edit e = run_edit(input, base_dir, scratch.path() / "obs-off", off);
    autonet::obs::Registry::global().set_enabled(true);
    obs_off_s = e.seconds;
    print_digests(out, seen, "edit0", digests_of(*e.wf));
  }
  const fs::path dir = scratch.path() / "traced";
  Edit e = run_edit(input, base_dir, dir, tracer);
  out.attempted = 3;
  const Digests digests = digests_of(*e.wf);
  print_digests(out, seen, "edit0", digests);
  out.set("obs.overhead_frac", plain_s / obs_off_s - 1);
  out.set("trace.overhead_frac", e.seconds / plain_s - 1);
  phase_metrics(out, tracer, e.op);

  const ac::IncrementalReport& incr = e.wf->incremental_report();
  const double dirty = static_cast<double>(incr.plan.dirty_devices.size());
  const double reused = static_cast<double>(incr.plan.reused_devices.size());
  out.set("incr.dirty_devices", dirty);
  out.set("incr.reuse_ratio", dirty + reused == 0 ? 0 : reused / (dirty + reused));
  std::printf("edit 0: %s, %zu dirty devices\n", incr.mode.c_str(),
              incr.plan.dirty_devices.size());
  tracer.next_op();
  {
    Span s(tracer, "incr.diff");
    (void)autonet::incremental::diff_graphs(base, input);
    out.set("incr.diff_s", s.stop());
  }
  out.set("ckpt.mb", static_cast<double>(dir_bytes(dir)) / (1024.0 * 1024.0));
  {
    // A warm no-op over the edit's own directory: every phase restores,
    // so this is the checkpoint read path alone.
    Span s(tracer, "ckpt.warm");
    ac::Workflow warm(nren_options());
    warm.incremental_from(dir.string());
    build_phases(warm, input, off);
    out.set("ckpt.warm_s", s.stop());
    std::printf("no-op rebuild: %s\n", warm.incremental_report().mode.c_str());
  }
  lint_metrics(out,
               lint_decomposition(tracer, e.wf->nidb(), autonet::verify::RuleRegistry::builtin()));
  output_sizes(out, e.wf->nidb(), &e.wf->configs());
  if (check_edits(out, {input}, {digests}) != 0) out.failed = 3;
  return out;
}

}  // namespace perfbench
