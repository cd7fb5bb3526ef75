#include "fuzz/oracles.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/workflow.hpp"
#include "emulation/config_parse.hpp"
#include "emulation/network.hpp"
#include "fuzz/rng.hpp"
#include "obs/registry.hpp"
#include "render/renderer.hpp"
#include "report/run_report.hpp"
#include "topology/gml.hpp"
#include "topology/graphml.hpp"
#include "topology/rocketfuel.hpp"
#include "verify/analysis/crosscheck.hpp"
#include "verify/analysis/model.hpp"
#include "verify/rules.hpp"

namespace autonet::fuzz {

namespace {

namespace fs = std::filesystem;

/// Workflow options for a scenario: its platform and iBGP mode, lint gate
/// kept non-fatal — a generated topology with lint findings is a valid
/// input, and oracles judge specific invariants, not the gate threshold.
core::WorkflowOptions scenario_options(const Scenario& s) {
  core::WorkflowOptions opts;
  opts.platform = s.platform;
  opts.ibgp = s.ibgp;
  opts.lint.fail_fast = false;
  return opts;
}

/// A fresh virtual-clock registry: each oracle evaluation records its
/// telemetry into an isolated deterministic registry so that (a) two
/// evaluations of the same scenario are byte-identical and (b) fuzzing
/// never pollutes the campaign's own fuzz.* counters.
std::unique_ptr<obs::Registry> virtual_registry() {
  return std::make_unique<obs::Registry>(std::make_unique<obs::VirtualClock>(1));
}

/// A fresh empty directory under the system temp root, private to this
/// instance: evaluations of the same seed in other threads or processes
/// (a campaign and a corpus replay, say) never share one.
class ScratchDir {
 public:
  ScratchDir(const std::string& purpose, std::uint64_t seed) {
    path_ = (fs::temp_directory_path() /
             ("autonet-fuzz-" + purpose + "-" + std::to_string(seed) + "-XXXXXX"))
                .string();
    if (::mkdtemp(path_.data()) == nullptr) {
      throw std::runtime_error("cannot create " + path_ + ": " + std::strerror(errno));
    }
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string truncate_detail(std::string text, std::size_t limit = 400) {
  if (text.size() > limit) {
    text.resize(limit);
    text += "...";
  }
  return text;
}

/// Oracle 1 — fib-crosscheck: the static analyzer's predicted
/// traceroutes must match the emulated network hop for hop, for every
/// ordered router pair (the generalized `analyze --cross-check`).
OracleResult run_fib_crosscheck(const Scenario& s) {
  auto registry = virtual_registry();
  obs::RegistryScope scope(*registry);
  core::Workflow wf(scenario_options(s));
  wf.use_telemetry(registry.get());
  wf.load(s.graph).design().compile().render();
  const auto result = verify::analysis::cross_check(wf.nidb(), wf.configs(), 64);
  if (result.clean()) return OracleResult::pass();
  const auto& d = result.divergences.front();
  return OracleResult::fail(truncate_detail(
      std::to_string(result.divergences.size()) + "/" +
      std::to_string(result.pairs) + " pairs diverge; first " + d.src + "->" +
      d.dst + ": " + d.detail));
}

/// Oracle 2 — incr-equivalence: applying a seeded mutation and rebuilding
/// incrementally from the baseline checkpoint must produce the NIDB,
/// rendered configs, and lint report byte-identical to a from-scratch
/// build of the mutated input. The mutation is derived from the scenario
/// seed, so a shrunk graph re-derives its own (deterministic) mutation.
OracleResult run_incr_equivalence(const Scenario& s) {
  graph::Graph mutated = s.graph;
  const std::string tag =
      apply_any_mutation(mutated, mix(s.seed, fnv1a("autonet.fuzz.incr")));
  if (tag.empty()) return OracleResult::skip("no applicable mutation");

  ScratchDir base("incr", s.seed);

  // Baseline build, checkpointed: the incremental build below finds
  // another input under the same build options, reports the delta from
  // this load record and rebuilds cold.
  {
    auto registry = virtual_registry();
    obs::RegistryScope scope(*registry);
    core::Workflow wf(scenario_options(s));
    wf.use_telemetry(registry.get());
    wf.checkpoint_to(base.path());
    wf.run(s.graph);
  }

  std::string incr_nidb, incr_lint;
  render::ConfigTree incr_configs;
  {
    auto registry = virtual_registry();
    obs::RegistryScope scope(*registry);
    core::Workflow wf(scenario_options(s));
    wf.use_telemetry(registry.get());
    wf.incremental_from(base.path());
    wf.run(mutated);
    incr_nidb = wf.nidb().to_json();
    incr_configs = wf.configs();
    incr_lint = wf.lint_report().to_json();
  }

  std::string scratch_nidb, scratch_lint;
  render::ConfigTree scratch_configs;
  {
    auto registry = virtual_registry();
    obs::RegistryScope scope(*registry);
    core::Workflow wf(scenario_options(s));
    wf.use_telemetry(registry.get());
    wf.run(mutated);
    scratch_nidb = wf.nidb().to_json();
    scratch_configs = wf.configs();
    scratch_lint = wf.lint_report().to_json();
  }

  if (incr_nidb != scratch_nidb) {
    return OracleResult::fail("NIDB diverges after " + tag +
                              " (incremental vs scratch)");
  }
  if (!(incr_configs == scratch_configs)) {
    return OracleResult::fail("rendered configs diverge after " + tag +
                              " (incremental vs scratch)");
  }
  if (incr_lint != scratch_lint) {
    return OracleResult::fail("lint report diverges after " + tag +
                              " (incremental vs scratch)");
  }
  return OracleResult::pass();
}

/// Oracle 3 — ckpt-resume: killing the pipeline at a seeded phase
/// boundary and resuming from the checkpoint must produce a run report
/// byte-identical to the uninterrupted run.
OracleResult run_ckpt_resume(const Scenario& s) {
  // Probe: uninterrupted run, collecting every checkpoint boundary the
  // pipeline crosses — the candidate kill sites.
  std::vector<std::string> boundaries;
  std::string uninterrupted;
  {
    auto registry = virtual_registry();
    obs::RegistryScope scope(*registry);
    core::RunControl control;
    control.trip_hook = [&boundaries](std::string_view where) {
      boundaries.emplace_back(where);
      return false;
    };
    core::Workflow wf(scenario_options(s));
    wf.use_telemetry(registry.get());
    wf.use_control(&control);
    wf.run(s.graph);
    uninterrupted = report::run_report_json(wf);
  }
  if (boundaries.empty()) return OracleResult::skip("no kill sites");

  const std::string kill_at =
      boundaries[mix(s.seed, fnv1a("autonet.fuzz.kill")) % boundaries.size()];

  ScratchDir ckpt("ckpt", s.seed);
  {
    auto registry = virtual_registry();
    obs::RegistryScope scope(*registry);
    core::RunControl control;
    bool tripped = false;
    control.trip_hook = [&](std::string_view where) {
      if (tripped || where != kill_at) return false;
      tripped = true;
      return true;
    };
    core::Workflow wf(scenario_options(s));
    wf.use_telemetry(registry.get());
    wf.use_control(&control);
    wf.checkpoint_to(ckpt.path());
    try {
      wf.run(s.graph);
    } catch (const core::Interrupted&) {
      // The simulated kill.
    }
  }

  std::string resumed;
  {
    auto registry = virtual_registry();
    obs::RegistryScope scope(*registry);
    core::Workflow wf(scenario_options(s));
    wf.use_telemetry(registry.get());
    wf.checkpoint_to(ckpt.path());
    wf.run(s.graph);
    resumed = report::run_report_json(wf);
  }

  if (resumed != uninterrupted) {
    return OracleResult::fail("run report diverges after kill at '" + kill_at +
                              "' + resume");
  }
  return OracleResult::pass();
}

/// Oracle 4 — lint-determinism: the analysis report and its SARIF export
/// must be byte-identical whether the rules run on one worker or eight.
OracleResult run_lint_determinism(const Scenario& s) {
  std::string nidb_json;
  {
    auto registry = virtual_registry();
    obs::RegistryScope scope(*registry);
    core::Workflow wf(scenario_options(s));
    wf.use_telemetry(registry.get());
    wf.load(s.graph).design().compile();
    nidb_json = wf.nidb().to_json();
  }
  const nidb::Nidb nidb = nidb::Nidb::from_json(nidb_json);
  const auto& registry = verify::RuleRegistry::with_analysis();

  auto lint_with_jobs = [&](std::size_t jobs, std::string& report_out,
                            std::string& sarif_out) {
    auto obs_registry = virtual_registry();
    obs::RegistryScope scope(*obs_registry);
    verify::LintInput input;
    input.nidb = &nidb;
    input.templates = &render::TemplateStore::builtins();
    verify::LintOptions options;
    options.jobs = jobs;
    const verify::Report report = verify::run_lint(input, options, registry);
    report_out = report.to_json();
    sarif_out = verify::to_sarif(report, registry);
  };

  std::string report1, sarif1, report8, sarif8;
  lint_with_jobs(1, report1, sarif1);
  lint_with_jobs(8, report8, sarif8);

  if (report1 != report8) {
    return OracleResult::fail("lint report differs between --jobs 1 and 8");
  }
  if (sarif1 != sarif8) {
    return OracleResult::fail("SARIF export differs between --jobs 1 and 8");
  }
  return OracleResult::pass();
}

/// Oracle 5 — render-roundtrip: every rendered router configuration must
/// parse back (through the same parsers the emulation boots from) into a
/// coherent RouterConfig — right hostname, an address plan, a routing
/// protocol.
OracleResult run_render_roundtrip(const Scenario& s) {
  auto registry = virtual_registry();
  obs::RegistryScope scope(*registry);
  core::Workflow wf(scenario_options(s));
  wf.use_telemetry(registry.get());
  wf.load(s.graph).design().compile().render();

  std::size_t parsed = 0;
  for (const auto* rec : wf.nidb().devices()) {
    const nidb::Value* type = rec->data.find("device_type");
    const std::string* type_s = type ? type->as_string() : nullptr;
    if (type_s == nullptr || *type_s != "router") continue;
    const nidb::Value* syntax = rec->data.find("syntax");
    const std::string* syntax_s = syntax ? syntax->as_string() : nullptr;
    if (syntax_s == nullptr || *syntax_s != "quagga") continue;

    emulation::RouterConfig cfg;
    try {
      cfg = emulation::parse_quagga_device(wf.configs(), rec->dst_folder(),
                                           rec->name);
    } catch (const emulation::ConfigError& e) {
      return OracleResult::fail("config for " + rec->name +
                                " fails to parse back: " + e.what());
    }
    if (cfg.hostname != rec->name) {
      return OracleResult::fail("config for " + rec->name +
                                " parses back with hostname '" + cfg.hostname +
                                "'");
    }
    if (!cfg.loopback.has_value()) {
      return OracleResult::fail("config for " + rec->name +
                                " parses back without a loopback address");
    }
    if (cfg.interfaces.empty()) {
      return OracleResult::fail("config for " + rec->name +
                                " parses back with no interfaces");
    }
    if (!cfg.ospf_enabled && !cfg.bgp_enabled) {
      return OracleResult::fail("config for " + rec->name +
                                " parses back with no routing protocol");
    }
    ++parsed;
  }
  if (parsed == 0) return OracleResult::skip("no quagga routers rendered");
  return OracleResult::pass();
}

/// Synthesizes a Rocketfuel .cch text from the scenario graph so the cch
/// parser sees realistic inputs without a committed fixture.
std::string to_cch(const graph::Graph& g) {
  std::string out;
  std::vector<graph::NodeId> nodes = g.nodes();
  // uid = position + 1; cch uids are arbitrary positive integers.
  auto uid_of = [&nodes](graph::NodeId n) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i] == n) return i + 1;
    }
    return std::size_t{0};
  };
  for (graph::NodeId n : nodes) {
    out += std::to_string(uid_of(n)) + " @loc bb ->";
    for (graph::EdgeId e : g.incident_edges(n)) {
      out += " <" + std::to_string(uid_of(g.edge_other(e, n))) + ">";
    }
    out += " =" + g.node_name(n) + " rn\n";
  }
  return out;
}

/// One seeded corruption of a loader input text.
std::string corrupt(std::string text, Rng& rng) {
  if (text.empty()) return text;
  switch (rng.below(4)) {
    case 0:  // truncate
      text.resize(rng.below(text.size()));
      break;
    case 1:  // flip one byte
      text[rng.below(text.size())] =
          static_cast<char>(rng.below(256));
      break;
    case 2:  // insert one byte
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                     rng.below(text.size() + 1)),
                  static_cast<char>(rng.below(256)));
      break;
    default:  // duplicate a slice into a random position
      if (text.size() >= 2) {
        const std::size_t from = rng.below(text.size() - 1);
        const std::size_t len =
            1 + rng.below(std::min<std::size_t>(text.size() - from, 16));
        text.insert(rng.below(text.size()), text.substr(from, len));
      }
      break;
  }
  return text;
}

/// Oracle 6 — loader-robustness: corrupted serializations of the
/// scenario must make every loader either succeed or throw its typed
/// parse error (topology::ParseError / emulation::ConfigError); any
/// other exception — or a crash, which the sanitizer presets surface —
/// fails the oracle.
OracleResult run_loader_robustness(const Scenario& s) {
  struct Probe {
    const char* name;
    std::string text;
    std::function<void(const std::string&)> load;
  };
  std::vector<Probe> probes;
  probes.push_back({"graphml", scenario_to_graphml(s),
                    [](const std::string& t) { (void)topology::load_graphml(t); }});
  probes.push_back({"gml", topology::to_gml(s.graph),
                    [](const std::string& t) { (void)topology::load_gml(t); }});
  probes.push_back({"rocketfuel", to_cch(s.graph), [](const std::string& t) {
                      (void)topology::load_rocketfuel(t);
                    }});
  {
    // The C-BGP script loader, fed the scenario rendered for cbgp.
    Scenario cbgp = s;
    cbgp.platform = "cbgp";
    auto registry = virtual_registry();
    obs::RegistryScope scope(*registry);
    core::Workflow wf(scenario_options(cbgp));
    wf.use_telemetry(registry.get());
    wf.load(cbgp.graph).design().compile().render();
    if (const std::string* script = wf.configs().get("network.cli")) {
      probes.push_back({"cbgp", *script, [](const std::string& t) {
                          (void)emulation::parse_cbgp_script(t);
                        }});
    }
  }

  Rng rng(mix(s.seed, fnv1a("autonet.fuzz.corrupt")));
  for (const Probe& probe : probes) {
    for (int round = 0; round < 6; ++round) {
      const std::string corrupted = corrupt(probe.text, rng);
      try {
        probe.load(corrupted);
      } catch (const topology::ParseError&) {
        // Typed rejection: exactly the contract.
      } catch (const emulation::ConfigError&) {
        // Typed rejection: exactly the contract.
      } catch (const std::exception& e) {
        return OracleResult::fail(
            truncate_detail(std::string(probe.name) +
                            " loader escaped with untyped " + e.what()));
      } catch (...) {
        return OracleResult::fail(std::string(probe.name) +
                                  " loader escaped with a non-std exception");
      }
    }
  }
  return OracleResult::pass();
}

const char* end_name(emulation::WalkEnd end) {
  switch (end) {
    case emulation::WalkEnd::kReached: return "reached";
    case emulation::WalkEnd::kDropped: return "dropped";
    case emulation::WalkEnd::kDown: return "down";
    case emulation::WalkEnd::kTtlExceeded: return "ttl-exceeded";
  }
  return "?";
}

/// A walk as "<verdict> at <router> after <hops>: <router>@<reply> ...".
std::string walk_text(const emulation::WalkOutcome& outcome,
                      const std::vector<std::pair<std::size_t, addressing::Ipv4Addr>>& hops,
                      const std::vector<std::string>& names) {
  std::string text = std::string(end_name(outcome.end)) + " at " + names[outcome.at] +
                     " after " + std::to_string(hops.size()) + ":";
  for (const auto& [router, reply] : hops) {
    text += " " + names[router] + "@" + reply.to_string();
  }
  return text;
}

/// Compares one forwarding column towards `dst` with walk() from every
/// source over the same routers: the verdict, the router it names, and
/// every answering hop. Returns the first disagreement, or "".
template <typename RouterAt>
std::string column_vs_walk(std::span<const emulation::ForwardingCell> column,
                           addressing::Ipv4Addr dst,
                           const std::map<std::uint32_t, std::size_t>& by_address,
                           const RouterAt& router_at,
                           const std::vector<std::string>& names) {
  std::vector<std::pair<std::size_t, addressing::Ipv4Addr>> walked;
  std::vector<std::pair<std::size_t, addressing::Ipv4Addr>> read;
  const auto record = [](auto& hops) {
    return [&hops](std::size_t r, addressing::Ipv4Addr reply) { hops.emplace_back(r, reply); };
  };
  for (std::size_t src = 0; src < column.size(); ++src) {
    walked.clear();
    read.clear();
    const auto outcome = emulation::walk(src, dst, 30, by_address, router_at, record(walked));
    emulation::column_walk(column, src, record(read));
    const std::string expected = walk_text(outcome, walked, names);
    const std::string got = walk_text(emulation::column_outcome(column, src), read, names);
    if (expected != got) {
      return names[src] + " -> " + dst.to_string() + ": walk " + expected + "; column " + got;
    }
  }
  return "";
}

/// The emulation's columns towards every router's trace target against
/// walk() over the same FIBs, address owners and failed routers, all read
/// back through the public API; and reachability() against ping().
std::string emulation_mismatch(const emulation::EmulatedNetwork& network) {
  const std::vector<std::string> names = network.router_names();
  std::map<std::string, std::size_t, std::less<>> index;
  for (std::size_t i = 0; i < names.size(); ++i) index[names[i]] = i;
  const std::vector<std::string> failed = network.failed_nodes();
  std::map<std::uint32_t, std::size_t> by_address;
  std::vector<addressing::Ipv4Addr> targets;
  std::vector<std::size_t> owners;  // the router each target belongs to
  for (std::size_t i = 0; i < names.size(); ++i) {
    const emulation::RouterConfig& cfg = network.router(names[i])->config();
    std::vector<addressing::Ipv4Addr> addresses;
    if (cfg.loopback) addresses.push_back(cfg.loopback->address);
    for (const auto& iface : cfg.interfaces) addresses.push_back(iface.address.address);
    for (const auto address : addresses) {
      by_address[address.value()] = index.find(*network.owner_of(address))->second;
    }
    if (const auto target = emulation::trace_target(cfg)) {
      targets.push_back(*target);
      owners.push_back(i);
    }
  }
  const auto router_at = [&](std::size_t r) {
    const emulation::VirtualRouter& router = *network.router(names[r]);
    return emulation::ForwardingRouter{
        router.config(), router.fib(),
        std::binary_search(failed.begin(), failed.end(), names[r])};
  };
  std::string mismatch;
  network.forwarding_columns(
      targets, 30, [&](std::size_t k, const std::vector<emulation::ForwardingCell>& column) {
        if (mismatch.empty()) {
          mismatch = column_vs_walk(column, targets[k], by_address, router_at, names);
        }
      });
  if (!mismatch.empty()) return "emulation: " + mismatch;

  const emulation::ReachabilityMatrix matrix = network.reachability();
  for (std::size_t j = 0; j < names.size(); ++j) {
    const auto& loopback = network.router(names[j])->config().loopback;
    for (std::size_t i = 0; i < names.size(); ++i) {
      const bool pinged = i != j && loopback && network.ping(names[i], loopback->address);
      if (matrix.reached[i][j] != pinged) {
        return "emulation: reachability " + names[i] + " -> " + names[j] +
               (pinged ? " misses" : " invents") + " a reply ping() sees";
      }
    }
  }
  return "";
}

/// The predictor's table against trace_to_router(), which walks: the
/// verdict, the drop router and every hop of every pair.
std::string predictor_mismatch(const verify::analysis::Model& model,
                               const verify::analysis::Prediction& prediction) {
  const auto& routers = model.routers();
  const verify::analysis::PathTable table(model, prediction);
  const auto path_text = [](const verify::analysis::Path& path) {
    std::string text = std::string(path.reached ? "reached" : "") +
                       (path.looped ? "looped" : "") + "|" + path.dropped_at + "|";
    for (const auto& hop : path.hops) text += " " + hop.router + "@" + hop.address.to_string();
    return text;
  };
  for (std::size_t s = 0; s < routers.size(); ++s) {
    for (std::size_t d = 0; d < routers.size(); ++d) {
      if (s == d) continue;
      const std::string traced = path_text(verify::analysis::trace_to_router(
          model, prediction, routers[s].hostname, routers[d].hostname));
      const std::string read = path_text(table.path(model, s, d));
      if (traced != read) {
        return "predictor: " + routers[s].hostname + " -> " + routers[d].hostname +
               ": trace_to_router " + traced + "; table " + read;
      }
    }
  }
  return "";
}

/// Oracle 7 — measure-equivalence: every fast all-pairs answer equals
/// its hop-by-hop reference. The booted emulation's forwarding columns
/// (and its reachability matrix) and the prediction's table give every
/// ordered pair the walk's verdict, end router and hops — on the intact
/// network, after one seeded link failure and again after one seeded
/// router failure.
OracleResult run_measure_equivalence(const Scenario& s) {
  auto registry = virtual_registry();
  obs::RegistryScope scope(*registry);
  core::Workflow wf(scenario_options(s));
  wf.use_telemetry(registry.get());
  wf.load(s.graph).design().compile().render();
  const verify::analysis::Model model = verify::analysis::Model::from_nidb(wf.nidb());
  auto network = emulation::EmulatedNetwork::from_nidb(wf.nidb(), wf.configs());
  if (network.router_count() < 2) return OracleResult::skip("fewer than two routers");

  Rng rng(mix(s.seed, fnv1a("autonet.fuzz.measure")));
  const std::vector<verify::analysis::Link> links = model.links();
  std::set<addressing::Ipv4Prefix> failed_subnets;
  const auto check = [&](const std::string& stage) {
    network.start(64);
    std::string mismatch = emulation_mismatch(network);
    if (mismatch.empty()) {
      mismatch = predictor_mismatch(model, verify::analysis::predict(model, failed_subnets, 64));
    }
    return mismatch.empty() ? mismatch : truncate_detail(stage + ": " + mismatch);
  };

  std::string mismatch = check("intact");
  if (mismatch.empty() && !links.empty()) {
    const verify::analysis::Link& link = links[rng.below(links.size())];
    network.fail_link(link.a, link.b);
    failed_subnets.insert(link.subnet);
    mismatch = check("link " + link.a + "<->" + link.b + " failed");
  }
  if (mismatch.empty()) {
    const std::vector<std::string> names = network.router_names();
    const std::string& router = names[rng.below(names.size())];
    network.fail_node(router);
    mismatch = check("router " + router + " failed");
  }
  return mismatch.empty() ? OracleResult::pass() : OracleResult::fail(mismatch);
}

/// Oracle 8 — fib-lookup: at every router of the prediction, the
/// compiled FIB returns the linear lookup()'s entry for seeded random
/// addresses and for each prefix's network and broadcast addresses and
/// their neighbours — on the FIB itself and on a copy carrying seeded
/// duplicate prefixes (other sources and metrics) and a default route.
OracleResult run_fib_lookup(const Scenario& s) {
  auto registry = virtual_registry();
  obs::RegistryScope scope(*registry);
  core::Workflow wf(scenario_options(s));
  wf.use_telemetry(registry.get());
  wf.load(s.graph).design().compile();
  const verify::analysis::Model model = verify::analysis::Model::from_nidb(wf.nidb());
  const verify::analysis::Prediction prediction = verify::analysis::predict(model, {}, 64);
  if (model.size() == 0) return OracleResult::skip("no routers");

  Rng rng(mix(s.seed, fnv1a("autonet.fuzz.fib-lookup")));
  const auto mismatch = [](const std::vector<emulation::FibEntry>& fib,
                           const std::vector<addressing::Ipv4Addr>& probes) -> std::string {
    const emulation::CompiledFib compiled(fib);
    const auto shown = [&fib](const emulation::FibEntry* entry) {
      return entry == nullptr ? std::string("none")
                              : "#" + std::to_string(entry - fib.data()) + " " +
                                    entry->prefix.to_string();
    };
    for (const auto probe : probes) {
      const emulation::FibEntry* linear = emulation::lookup(fib, probe);
      const emulation::FibEntry* fast = compiled.lookup(probe);
      if (fast != linear) {
        return probe.to_string() + ": linear " + shown(linear) + ", compiled " + shown(fast);
      }
    }
    return "";
  };
  constexpr emulation::RouteSource kSources[] = {
      emulation::RouteSource::kConnected, emulation::RouteSource::kOspf,
      emulation::RouteSource::kEbgp, emulation::RouteSource::kIbgp};
  for (std::size_t r = 0; r < model.size(); ++r) {
    const std::vector<emulation::FibEntry>& fib = prediction.fibs[r];
    std::vector<addressing::Ipv4Addr> probes;
    for (int i = 0; i < 64; ++i) {
      probes.emplace_back(static_cast<std::uint32_t>(rng.next()));
    }
    for (const auto& entry : fib) {
      for (const addressing::Ipv4Addr edge : {entry.prefix.network(), entry.prefix.broadcast()}) {
        probes.push_back(edge);
        probes.push_back(edge + 1);
        probes.emplace_back(edge.value() - 1);
      }
    }
    std::string detail = mismatch(fib, probes);
    if (detail.empty()) {
      std::vector<emulation::FibEntry> copy = fib;
      for (const auto& entry : fib) {
        if (!rng.chance(1, 3)) continue;
        emulation::FibEntry twin = entry;
        twin.source = kSources[rng.below(4)];
        twin.metric = entry.metric + static_cast<double>(rng.range(-1, 1));
        copy.insert(copy.begin() + static_cast<std::ptrdiff_t>(rng.below(copy.size() + 1)),
                    std::move(twin));
      }
      emulation::FibEntry fallback;
      fallback.prefix = addressing::Ipv4Prefix(addressing::Ipv4Addr{}, 0);
      fallback.source = kSources[rng.below(4)];
      copy.insert(copy.begin() + static_cast<std::ptrdiff_t>(rng.below(copy.size() + 1)),
                  std::move(fallback));
      detail = mismatch(copy, probes);
      if (!detail.empty()) detail = "with duplicates: " + detail;
    }
    if (!detail.empty()) {
      return OracleResult::fail(truncate_detail(model.routers()[r].hostname + ": " + detail));
    }
  }
  return OracleResult::pass();
}

/// Wraps an oracle body: any exception escaping the pipeline itself is a
/// failure (oracles are pure predicates — they never throw).
template <typename F>
std::function<OracleResult(const Scenario&)> guarded(F body) {
  return [body](const Scenario& s) -> OracleResult {
    try {
      return body(s);
    } catch (const std::exception& e) {
      return OracleResult::fail(
          truncate_detail(std::string("pipeline threw: ") + e.what()));
    }
  };
}

}  // namespace

const std::vector<Oracle>& oracle_registry() {
  static const std::vector<Oracle> kOracles = {
      {"fib-crosscheck",
       "predicted FIBs match the emulated network hop for hop",
       guarded(run_fib_crosscheck)},
      {"incr-equivalence",
       "incremental rebuild equals from-scratch rebuild, byte for byte",
       guarded(run_incr_equivalence)},
      {"ckpt-resume",
       "kill + resume produces the uninterrupted run report, byte for byte",
       guarded(run_ckpt_resume)},
      {"lint-determinism",
       "analysis report and SARIF identical across --jobs",
       guarded(run_lint_determinism)},
      {"render-roundtrip",
       "rendered configs parse back into coherent routers",
       guarded(run_render_roundtrip)},
      {"loader-robustness",
       "corrupted loader inputs throw typed parse errors, never crash",
       guarded(run_loader_robustness)},
      {"measure-equivalence",
       "forwarding tables equal the hop-by-hop walk for every pair, intact and failed",
       guarded(run_measure_equivalence)},
      {"fib-lookup",
       "compiled FIB lookups return the linear lookup's entry",
       guarded(run_fib_lookup)},
  };
  return kOracles;
}

const Oracle* find_oracle(std::string_view name) {
  for (const Oracle& oracle : oracle_registry()) {
    if (oracle.name == name) return &oracle;
  }
  return nullptr;
}

}  // namespace autonet::fuzz
