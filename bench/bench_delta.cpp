// E19: the incremental pipeline. The headline ratio is cold vs warm: a
// checkpointed build of an NREN-scale model versus an incremental re-run
// with an unchanged input (every phase restores from the baseline) and
// versus a single link-weight edit (the input differs, so the build runs
// cold and reports the one-change delta from the baseline's load
// record). Deploy is excluded — reuse economics live in the build phases
// (design/compile/render/lint), and the emulated boot is identical work
// on either path.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>

#include "bench_json.hpp"

#include "core/workflow.hpp"
#include "graph/graph.hpp"
#include "incremental/delta.hpp"
#include "topology/generators.hpp"

namespace {

using namespace autonet;
namespace fs = std::filesystem;

graph::Graph bench_model() {
  topology::NrenOptions opts;
  opts.as_count = 16;
  opts.router_count = 800;
  opts.link_count = 1000;
  return topology::make_nren_model(opts);
}

graph::Graph edited_model() {
  graph::Graph g = bench_model();
  const auto edges = g.edges();
  g.set_edge_attr(edges.front(), "ospf_cost", 5);
  return g;
}

std::string bench_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir.string();
}

void build_phases(core::Workflow& wf, const graph::Graph& g) {
  wf.load(g).design().compile().render().lint();
}

// Writes the baseline checkpoint the incremental runs chain off. Done
// once per benchmark, outside the timed loop.
void make_baseline(const graph::Graph& g, const std::string& dir) {
  core::Workflow wf;
  wf.checkpoint_to(dir);
  build_phases(wf, g);
}

void BM_Delta_ColdBuild(benchmark::State& state) {
  const graph::Graph g = bench_model();
  const std::string dir = bench_dir("autonet_bench_delta_cold");
  for (auto _ : state) {
    state.PauseTiming();
    fs::remove_all(dir);
    state.ResumeTiming();
    core::Workflow wf;
    wf.checkpoint_to(dir);
    build_phases(wf, g);
    benchmark::DoNotOptimize(wf.nidb().device_count());
  }
  state.counters["devices"] = static_cast<double>(g.node_count());
  fs::remove_all(dir);
}
BENCHMARK(BM_Delta_ColdBuild)->Unit(benchmark::kMillisecond);

void BM_Delta_WarmNoop(benchmark::State& state) {
  const graph::Graph g = bench_model();
  const std::string base = bench_dir("autonet_bench_delta_warm_base");
  make_baseline(g, base);
  std::size_t reused = 0;
  for (auto _ : state) {
    core::Workflow wf;
    wf.incremental_from(base);
    build_phases(wf, g);
    reused = wf.restored_phases().size();
    benchmark::DoNotOptimize(wf.nidb().device_count());
  }
  state.counters["phases_restored"] = static_cast<double>(reused);
  fs::remove_all(base);
}
BENCHMARK(BM_Delta_WarmNoop)->Unit(benchmark::kMillisecond);

void BM_Delta_SingleEdit(benchmark::State& state) {
  const graph::Graph g = bench_model();
  const graph::Graph edited = edited_model();
  const std::string base = bench_dir("autonet_bench_delta_edit_base");
  make_baseline(g, base);
  std::size_t dirty = 0;
  for (auto _ : state) {
    core::Workflow wf;
    wf.incremental_from(base);
    build_phases(wf, edited);
    dirty = wf.incremental_report().plan.dirty_devices.size();
    benchmark::DoNotOptimize(wf.nidb().device_count());
  }
  state.counters["dirty_devices"] = static_cast<double>(dirty);
  fs::remove_all(base);
}
BENCHMARK(BM_Delta_SingleEdit)->Unit(benchmark::kMillisecond);

void BM_Delta_Diff(benchmark::State& state) {
  const graph::Graph a = bench_model();
  const graph::Graph b = edited_model();
  std::size_t size = 0;
  for (auto _ : state) {
    const auto delta = incremental::diff_graphs(a, b);
    size = delta.size();
    benchmark::DoNotOptimize(size);
  }
  state.counters["deltas"] = static_cast<double>(size);
}
BENCHMARK(BM_Delta_Diff)->Unit(benchmark::kMillisecond);

}  // namespace

AUTONET_BENCH_MAIN("delta")
