// The `autonet` command-line front end: generate topologies, build
// (design + compile + render + static-check) configuration trees, and run
// full experiments with measurement — the workflow a user drives the
// library with from a shell.
//
//   autonet generate <figure5|small-internet|bad-gadget|nren> [--out F]
//   autonet build <topology> [--platform P] [--ibgp mesh|rr|rr-auto]
//                 [--isis] [--dns] [--out DIR] [--nidb F] [--viz F]
//   autonet check <topology> [--platform P] [--ibgp MODE]
//   autonet lint  [<topology>] [--platform P] [--ibgp MODE] [--templates DIR]
//                 [--config FILE] [--disable IDS] [--enable IDS]
//                 [--severity ID=SEV,...] [--fail-on error|warning]
//                 [--format text|json|sarif] [--out FILE] [--trace FILE]
//                 [--list-rules]
//   autonet analyze <topology> [--platform P] [--ibgp MODE] [--jobs N]
//                 [--config FILE] [--disable IDS] [--enable IDS]
//                 [--severity ID=SEV,...] [--fail-on error|warning]
//                 [--format text|json|sarif] [--out FILE] [--trace FILE]
//                 [--list-rules] [--cross-check]
//   autonet run   <topology> [--platform P] [--ibgp MODE]
//                 [--traceroute SRC DST] [--trace FILE] [--validate]
//                 [--metrics FILE] [--checkpoint DIR] [--resume DIR]
//                 [--incremental] [--since DIR] [--explain]
//                 [--deadline MS] [--report FILE]
//   autonet diff  <topologyA> <topologyB> [--format text|json] [--out FILE]
//   autonet exp run <campaign.file> [--out DIR] [--jobs N] [--fresh]
//                 [--checkpoints] [--incremental] [--deadline MS] [--trace FILE]
//   autonet exp report <DIR|journal.jsonl> [--format text|csv|jsonl]
//   autonet events <run_report.json|events.jsonl> [--phase P]
//                 [--category C] [--severity info|warning|error]
//                 [--min-us N] [--max-us N] [--format text|jsonl]
//   autonet report diff <A> <B> [--threshold-pct N]
//   autonet fuzz  [--seed N] [--runs N] [--oracle NAME] [--max-nodes N]
//                 [--time-budget SEC] [--corpus DIR] [--shrink-evals N]
//                 [--replay FILE|DIR] [--list-oracles]
//
// Supervision: `run` and `exp run` install a graceful SIGINT handler —
// the first ^C cancels cooperatively at the next phase/sub-phase
// boundary, checkpointing completed phases (exit 130); --deadline gives
// the run a time budget (exit 124 on expiry). --resume/--checkpoints
// restart interrupted work at the last completed phase.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <algorithm>

#include "core/workflow.hpp"
#include "experiment/aggregate.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/session.hpp"
#include "incremental/delta.hpp"
#include "experiment/campaign.hpp"
#include "experiment/runner.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "report/run_report.hpp"
#include "topology/builtin.hpp"
#include "topology/generators.hpp"
#include "topology/gml.hpp"
#include "topology/graphml.hpp"
#include "topology/load.hpp"
#include "verify/analysis/crosscheck.hpp"
#include "verify/rules.hpp"
#include "viz/export.hpp"

namespace {

using namespace autonet;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  autonet generate <figure5|small-internet|bad-gadget|nren> "
               "[--out FILE] [--format graphml|gml]\n"
               "  autonet build <topology> [--platform netkit|dynagen|"
               "junosphere|cbgp] [--ibgp mesh|rr|rr-auto]\n"
               "                [--isis] [--dns] [--out DIR] [--nidb FILE] "
               "[--viz FILE]\n"
               "  autonet check <topology> [--platform P] [--ibgp MODE]\n"
               "  autonet lint [<topology>] [--platform P] [--ibgp MODE] "
               "[--templates DIR] [--config FILE]\n"
               "               [--disable IDS] [--enable IDS] "
               "[--severity ID=error|warning,...] [--fail-on error|warning]\n"
               "               [--format text|json|sarif] [--out FILE] "
               "[--trace FILE] [--list-rules]\n"
               "  autonet analyze <topology> [--platform P] [--ibgp MODE] "
               "[--jobs N] [--config FILE]\n"
               "               [--disable IDS] [--enable IDS] "
               "[--severity ID=error|warning,...] [--fail-on error|warning]\n"
               "               [--format text|json|sarif] [--out FILE] "
               "[--trace FILE] [--list-rules] [--cross-check]\n"
               "  autonet run <topology> [--platform P] [--ibgp MODE] "
               "[--traceroute SRC DST] [--trace FILE] [--validate]\n"
               "              [--metrics FILE] [--checkpoint DIR] "
               "[--resume DIR] [--deadline MS] [--report FILE] "
               "[--virtual-clock]\n"
               "              [--incremental] [--since DIR] [--explain]\n"
               "  autonet diff <topologyA> <topologyB> "
               "[--format text|json] [--out FILE]\n"
               "  autonet exp run <campaign.file> [--out DIR] [--jobs N] "
               "[--fresh] [--checkpoints] [--incremental] [--deadline MS] "
               "[--trace FILE]\n"
               "  autonet exp report <DIR|journal.jsonl> "
               "[--format text|csv|jsonl] [--out FILE]\n"
               "  autonet events <run_report.json|events.jsonl> [--phase P] "
               "[--category C]\n"
               "                 [--severity info|warning|error] [--min-us N] "
               "[--max-us N] [--format text|jsonl]\n"
               "  autonet report diff <A> <B> [--threshold-pct N]\n"
               "  autonet fuzz [--seed N] [--runs N] [--oracle NAME] "
               "[--max-nodes N] [--time-budget SEC]\n"
               "               [--corpus DIR] [--shrink-evals N] "
               "[--replay FILE|DIR] [--list-oracles]\n");
  return 2;
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  std::vector<std::string> traceroute;  // SRC DST

  static Args parse(int argc, char** argv, int start) {
    Args args;
    for (int i = start; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--isis" || arg == "--dns" || arg == "--validate" ||
          arg == "--list-rules" || arg == "--fresh" || arg == "--checkpoints" ||
          arg == "--virtual-clock" || arg == "--cross-check" ||
          arg == "--incremental" || arg == "--explain" ||
          arg == "--list-oracles") {
        args.options[arg.substr(2)] = "1";
      } else if (arg == "--traceroute" && i + 2 < argc) {
        args.traceroute = {argv[i + 1], argv[i + 2]};
        i += 2;
      } else if (arg.starts_with("--") && i + 1 < argc) {
        args.options[arg.substr(2)] = argv[++i];
      } else {
        args.positional.push_back(std::move(arg));
      }
    }
    return args;
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return options.contains(key);
  }
};

graph::Graph named_topology(const std::string& name) {
  if (name == "figure5") return topology::figure5();
  if (name == "small-internet") return topology::small_internet();
  if (name == "bad-gadget") return topology::bad_gadget();
  if (name == "nren") return topology::make_nren_model();
  throw std::invalid_argument("unknown built-in topology '" + name + "'");
}

graph::Graph load_input(const std::string& spec) {
  // Built-in names work anywhere a file path does.
  for (const char* builtin : {"figure5", "small-internet", "bad-gadget", "nren"}) {
    if (spec == builtin) return named_topology(spec);
  }
  return topology::load_topology_file(spec);
}

core::WorkflowOptions workflow_options(const Args& args) {
  core::WorkflowOptions opts;
  opts.platform = args.get("platform", "netkit");
  opts.ibgp = args.get("ibgp", "mesh");
  opts.enable_isis = args.has("isis");
  opts.enable_dns = args.has("dns");
  return opts;
}

int write_file_checked(const std::string& path, const std::string& content) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  file << content;
  file.flush();
  if (!file) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return 1;
  }
  return 0;
}

int cmd_generate(const Args& args) {
  if (args.positional.empty()) return usage();
  auto g = named_topology(args.positional[0]);
  const std::string format = args.get("format", "graphml");
  std::string text = format == "gml" ? topology::to_gml(g) : topology::to_graphml(g);
  const std::string out = args.get("out");
  if (out.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    std::ofstream file(out, std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    file << text;
    std::printf("%zu nodes, %zu edges written to %s\n", g.node_count(),
                g.edge_count(), out.c_str());
  }
  return 0;
}

int cmd_build(const Args& args) {
  if (args.positional.empty()) return usage();
  core::Workflow wf(workflow_options(args));
  wf.load(load_input(args.positional[0])).design().compile().render();

  auto check = verify::run_lint({.nidb = &wf.nidb()});
  std::printf("%s\n", check.to_string().c_str());

  std::printf("%zu devices, %zu files, %zu bytes; timings: %s\n",
              wf.nidb().device_count(), wf.configs().file_count(),
              wf.configs().total_bytes(), wf.timings().to_string().c_str());

  if (args.has("out")) {
    wf.configs().write_to_disk(args.get("out"));
    std::printf("configuration tree written to %s/\n", args.get("out").c_str());
  }
  if (args.has("nidb")) {
    if (write_file_checked(args.get("nidb"), wf.nidb().to_json())) return 2;
    std::printf("resource database written to %s\n", args.get("nidb").c_str());
  }
  if (args.has("viz")) {
    if (write_file_checked(args.get("viz"), viz::anm_to_d3_json(wf.anm()))) return 2;
    std::printf("visualization JSON written to %s\n", args.get("viz").c_str());
  }
  return check.ok() ? 0 : 1;
}

int cmd_check(const Args& args) {
  if (args.positional.empty()) return usage();
  core::Workflow wf(workflow_options(args));
  wf.load(load_input(args.positional[0])).design().compile();
  auto report = verify::run_lint({.nidb = &wf.nidb()});
  std::printf("%s\n", report.to_string().c_str());
  return report.ok() ? 0 : 1;
}

std::vector<std::string> split_commas(const std::string& list) {
  std::vector<std::string> out;
  std::istringstream in(list);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void list_rules(const verify::RuleRegistry& registry) {
  for (const auto& rule : registry.rules()) {
    const std::string severity(verify::severity_name(rule.info.default_severity));
    const std::string origin =
        rule.info.origin.empty() ? "" : " [origin: " + rule.info.origin + "]";
    std::printf("%-24s %-10s %-7s %s%s\n", rule.info.id.c_str(),
                rule.info.category.c_str(), severity.c_str(),
                rule.info.description.c_str(), origin.c_str());
  }
}

// Shared by `lint` and `analyze`: the configuration file (explicit
// --config, else `.autonetlint` in the working directory) with CLI
// overrides on top. Returns 0 on success, 2 on any configuration error
// — including `.autonetlint` parse errors, which already carry
// file:line and the offending token.
int parse_lint_options(const Args& args, const verify::RuleRegistry& registry,
                       const char* tool, verify::LintOptions& opts) {
  try {
    if (args.has("config")) {
      opts = verify::LintOptions::load_config_file(args.get("config"));
    } else if (std::filesystem::exists(".autonetlint")) {
      opts = verify::LintOptions::load_config_file(".autonetlint");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "autonet %s: %s\n", tool, e.what());
    return 2;
  }
  for (const auto& id : split_commas(args.get("disable"))) opts.enabled[id] = false;
  for (const auto& id : split_commas(args.get("enable"))) opts.enabled[id] = true;
  for (const auto& spec : split_commas(args.get("severity"))) {
    auto eq = spec.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "autonet %s: --severity expects ID=error|warning\n",
                   tool);
      return 2;
    }
    const std::string level = spec.substr(eq + 1);
    if (level != "error" && level != "warning") {
      std::fprintf(stderr, "autonet %s: unknown severity '%s'\n", tool,
                   level.c_str());
      return 2;
    }
    opts.severity[spec.substr(0, eq)] =
        level == "error" ? verify::Severity::kError : verify::Severity::kWarning;
  }
  if (args.has("fail-on")) {
    const std::string threshold = args.get("fail-on");
    if (threshold != "error" && threshold != "warning") {
      std::fprintf(stderr, "autonet %s: --fail-on expects error|warning\n", tool);
      return 2;
    }
    opts.fail_on_warning = threshold == "warning";
  }
  if (args.has("jobs")) {
    try {
      opts.jobs = static_cast<std::size_t>(std::stoull(args.get("jobs")));
    } catch (const std::exception&) {
      std::fprintf(stderr, "autonet %s: --jobs expects a number\n", tool);
      return 2;
    }
  }
  // Unknown rule ids are configuration typos, not silent no-ops.
  for (const auto& [id, on] : opts.enabled) {
    if (registry.find(id) == nullptr) {
      std::fprintf(stderr, "autonet %s: unknown rule id '%s'\n", tool, id.c_str());
      return 2;
    }
  }
  for (const auto& [id, sev] : opts.severity) {
    if (registry.find(id) == nullptr) {
      std::fprintf(stderr, "autonet %s: unknown rule id '%s'\n", tool, id.c_str());
      return 2;
    }
  }
  return 0;
}

// Renders and writes the report (+ optional trace file). Returns 0, or
// 2 on an output error — CI must not read a half-written SARIF document
// as a clean gate.
int write_lint_output(const Args& args, const char* tool,
                      const verify::Report& report,
                      const verify::RuleRegistry& registry) {
  const std::string format = args.get("format", "text");
  std::string rendered;
  if (format == "text") {
    rendered = report.to_string() + "\n";
  } else if (format == "json") {
    rendered = report.to_json() + "\n";
  } else if (format == "sarif") {
    rendered = verify::to_sarif(report, registry) + "\n";
  } else {
    std::fprintf(stderr, "autonet %s: unknown format '%s'\n", tool,
                 format.c_str());
    return 2;
  }
  if (args.has("out")) {
    std::ofstream file(args.get("out"), std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", args.get("out").c_str());
      return 2;
    }
    file << rendered;
    file.flush();
    if (!file) {
      std::fprintf(stderr, "autonet %s: error writing %s\n", tool,
                   args.get("out").c_str());
      return 2;
    }
  } else {
    std::fputs(rendered.c_str(), stdout);
  }
  if (args.has("trace")) {
    std::ofstream file(args.get("trace"), std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", args.get("trace").c_str());
      return 2;
    }
    file << obs::to_chrome_trace(obs::Registry::current());
    file.flush();
    if (!file) {
      std::fprintf(stderr, "autonet %s: error writing %s\n", tool,
                   args.get("trace").c_str());
      return 2;
    }
  }
  return 0;
}

int cmd_lint(const Args& args) {
  const verify::RuleRegistry& registry = verify::RuleRegistry::builtin();

  if (args.has("list-rules")) {
    list_rules(registry);
    return 0;
  }
  verify::LintOptions opts;
  if (int rc = parse_lint_options(args, registry, "lint", opts); rc != 0) {
    return rc;
  }

  verify::LintInput input;
  core::Workflow wf(workflow_options(args));
  if (!args.positional.empty()) {
    wf.load(load_input(args.positional[0])).design().compile();
    input.nidb = &wf.nidb();
    input.templates = &render::TemplateStore::builtins();
  }
  if (args.has("templates")) {
    const std::string dir = args.get("templates");
    if (!std::filesystem::is_directory(dir)) {
      std::fprintf(stderr, "autonet lint: %s is not a directory\n", dir.c_str());
      return 2;
    }
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file() || entry.path().extension() != ".tmpl") continue;
      std::ifstream file(entry.path(), std::ios::binary);
      std::ostringstream text;
      text << file.rdbuf();
      input.template_files.emplace_back(
          std::filesystem::relative(entry.path(), dir).generic_string(),
          text.str());
    }
  }
  if (input.nidb == nullptr && input.template_files.empty()) return usage();

  const verify::Report report = verify::run_lint(input, opts, registry);
  if (int rc = write_lint_output(args, "lint", report, registry); rc != 0) {
    return rc;
  }
  return opts.should_fail(report) ? 1 : 0;
}

// `autonet analyze`: the semantic twin of lint — runs every builtin
// rule plus the "analysis" family over predicted FIBs, or with
// --cross-check boots the emulation and differentially tests the
// prediction against it.
int cmd_analyze(const Args& args) {
  const verify::RuleRegistry& registry = verify::RuleRegistry::with_analysis();

  if (args.has("list-rules")) {
    list_rules(registry);
    return 0;
  }
  verify::LintOptions opts;
  if (int rc = parse_lint_options(args, registry, "analyze", opts); rc != 0) {
    return rc;
  }
  if (args.positional.empty()) return usage();

  core::Workflow wf(workflow_options(args));
  wf.load(load_input(args.positional[0])).design().compile();

  if (args.has("cross-check")) {
    wf.render();
    const verify::analysis::CrossCheckResult result =
        verify::analysis::cross_check(wf.nidb(), wf.configs());
    std::printf("cross-check: %zu pairs, %zu divergences\n", result.pairs,
                result.divergences.size());
    constexpr std::size_t kShow = 20;
    for (std::size_t i = 0; i < result.divergences.size(); ++i) {
      if (i == kShow) {
        std::printf("  … (+%zu more)\n", result.divergences.size() - kShow);
        break;
      }
      const verify::analysis::Divergence& d = result.divergences[i];
      std::printf("  %s -> %s: %s\n", d.src.c_str(), d.dst.c_str(),
                  d.detail.c_str());
    }
    return result.clean() ? 0 : 1;
  }

  verify::LintInput input;
  input.nidb = &wf.nidb();
  input.templates = &render::TemplateStore::builtins();
  const verify::Report report = verify::run_lint(input, opts, registry);
  if (int rc = write_lint_output(args, "analyze", report, registry); rc != 0) {
    return rc;
  }
  return opts.should_fail(report) ? 1 : 0;
}

// --- Experiment campaigns -------------------------------------------------

int cmd_exp_run(const Args& args) {
  if (args.positional.size() < 2) return usage();
  experiment::CampaignSpec spec;
  try {
    spec = experiment::load_campaign_file(args.positional[1]);
  } catch (const experiment::CampaignError& e) {
    std::fprintf(stderr, "autonet exp: %s\n", e.what());
    return 2;
  }

  const std::string out_dir = args.get("out", "exp_" + spec.name);
  std::filesystem::create_directories(out_dir);

  experiment::RunnerOptions opts;
  opts.journal_path = out_dir + "/journal.jsonl";
  opts.report_dir = out_dir + "/reports";
  if (args.has("jobs")) opts.jobs = std::stoi(args.get("jobs"));
  if (args.has("checkpoints")) opts.checkpoint_dir = out_dir + "/checkpoints";
  if (args.has("incremental")) {
    // Incremental chaining needs the per-run checkpoint directories.
    opts.incremental = true;
    opts.checkpoint_dir = out_dir + "/checkpoints";
  }
  if (args.has("fresh")) {
    std::filesystem::remove(opts.journal_path);
    std::filesystem::remove_all(opts.report_dir);
    if (!opts.checkpoint_dir.empty()) {
      std::filesystem::remove_all(opts.checkpoint_dir);
    }
  }

  // Graceful supervision: ^C (or an expired --deadline, wall time,
  // observed between runs) drains the worker pool; interrupted runs
  // journal a checkpoint pointer and a later `exp run` resumes them.
  core::RunControl control;
  control.token.link_sigint();
  if (args.has("deadline")) {
    control.deadline = core::Deadline::after_ms(
        static_cast<std::uint64_t>(std::stoll(args.get("deadline"))));
  }
  opts.control = &control;

  experiment::CampaignRunner runner(spec, opts);
  std::printf("campaign %s: %zu runs (journal %s)\n", spec.name.c_str(),
              spec.run_count(), opts.journal_path.c_str());
  const experiment::CampaignResult result = runner.run();
  std::printf("executed %zu, resumed %zu from journal (%zu mid-run), "
              "%zu failed\n",
              result.executed, result.skipped, result.resumed, result.failed);
  if (result.interrupted) {
    std::fprintf(stderr,
                 "campaign interrupted; completed runs are journalled. "
                 "resume with:\n  autonet exp run %s --out %s%s\n",
                 args.positional[1].c_str(), out_dir.c_str(),
                 opts.checkpoint_dir.empty() ? "" : " --checkpoints");
  }

  const auto groups = experiment::aggregate(result.results);
  if (int rc = write_file_checked(out_dir + "/aggregate.csv",
                                  experiment::to_csv(groups))) {
    return 2 * rc;
  }
  if (int rc = write_file_checked(out_dir + "/aggregate.jsonl",
                                  experiment::to_jsonl(groups))) {
    return 2 * rc;
  }
  if (args.has("trace")) {
    if (write_file_checked(args.get("trace"),
                           obs::to_chrome_trace(runner.telemetry()))) {
      return 2;
    }
  }
  std::printf("%s", experiment::to_text(groups).c_str());
  std::printf("aggregates written to %s/aggregate.{csv,jsonl}\n",
              out_dir.c_str());
  if (result.interrupted) return 130;
  return result.all_ok() ? 0 : 1;
}

int cmd_exp_report(const Args& args) {
  if (args.positional.size() < 2) return usage();
  std::string journal_path = args.positional[1];
  if (std::filesystem::is_directory(journal_path)) {
    journal_path += "/journal.jsonl";
  }
  if (!std::filesystem::exists(journal_path)) {
    std::fprintf(stderr, "autonet exp: no journal at %s\n", journal_path.c_str());
    return 2;
  }
  experiment::Journal journal(journal_path);
  std::vector<experiment::RunResult> results;
  for (auto& [id, result] : journal.load()) results.push_back(std::move(result));
  std::sort(results.begin(), results.end(),
            [](const auto& a, const auto& b) { return a.index < b.index; });
  const auto groups = experiment::aggregate(results);

  // Run-status summary: how many journalled runs resumed from a mid-run
  // checkpoint (derived from the journal's shape — ckpt pointer lines
  // later superseded by completed results), how many are still
  // interrupted (pending checkpoints), and where each run's
  // run_report.json landed.
  const auto pending = journal.load_checkpoints();
  const auto resumed_list = journal.resumed_ids();
  const std::set<std::string> resumed_set(resumed_list.begin(),
                                          resumed_list.end());

  const std::string format = args.get("format", "text");
  std::string rendered;
  if (format == "text") {
    rendered = experiment::to_text(groups);
    std::ostringstream summary;
    summary << "runs: " << results.size() << " journalled, "
            << resumed_set.size() << " resumed, " << pending.size()
            << " interrupted (pending checkpoint)\n";
    for (const auto& result : results) {
      if (!result.report_path.empty()) {
        summary << "report " << result.id << ": " << result.report_path << "\n";
      }
    }
    rendered += summary.str();
  } else if (format == "csv") {
    rendered = experiment::to_csv(groups);
    // A second CSV section (own header) after a blank line: per-run
    // status rows, so spreadsheets ingest both tables.
    std::ostringstream summary;
    summary << "\nrun,ok,resumed,interrupted,report\n";
    for (const auto& result : results) {
      summary << result.id << "," << (result.ok ? 1 : 0) << ","
              << (resumed_set.count(result.id) != 0 ? 1 : 0) << ",0,"
              << result.report_path << "\n";
    }
    for (const auto& [run_id, record] : pending) {
      summary << run_id << ",0,0,1,\n";
    }
    rendered += summary.str();
  } else if (format == "jsonl") {
    rendered = experiment::to_jsonl(groups);
  } else {
    std::fprintf(stderr, "autonet exp: unknown format '%s'\n", format.c_str());
    return 2;
  }
  if (args.has("out")) {
    if (write_file_checked(args.get("out"), rendered)) return 2;
  } else {
    std::fputs(rendered.c_str(), stdout);
  }
  return 0;
}

// --- Flight-recorder timelines & run-report diffs -------------------------

// Loads a timeline from either a run_report.json (its "events" array)
// or an events JSONL file (flight.jsonl, <phase>.events.jsonl).
std::vector<obs::RecorderEvent> load_events_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  try {
    const nidb::Value doc = nidb::parse_json(text);
    if (doc.find("events") != nullptr) return report::report_events(doc);
  } catch (const std::exception&) {
    // Not a single JSON document: fall through to JSONL.
  }
  return core::events_from_jsonl(text);
}

int cmd_events(const Args& args) {
  if (args.positional.empty()) return usage();
  std::vector<obs::RecorderEvent> events;
  try {
    events = load_events_file(args.positional[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "autonet events: %s\n", e.what());
    return 2;
  }

  const std::string phase = args.get("phase");
  const std::string category = args.get("category");
  const std::string severity = args.get("severity");
  if (!severity.empty() && severity != "info" && severity != "warning" &&
      severity != "error") {
    std::fprintf(stderr,
                 "autonet events: --severity expects info|warning|error\n");
    return 2;
  }
  const std::uint64_t min_us =
      args.has("min-us") ? std::stoull(args.get("min-us")) : 0;
  const std::uint64_t max_us = args.has("max-us")
                                   ? std::stoull(args.get("max-us"))
                                   : std::numeric_limits<std::uint64_t>::max();
  // --severity filters at-or-above: warning shows warnings and errors.
  const auto min_severity =
      severity.empty() ? obs::Severity::kInfo : obs::severity_from_label(severity);

  std::vector<const obs::RecorderEvent*> selected;
  for (const obs::RecorderEvent& event : events) {
    if (!phase.empty() && event.phase != phase) continue;
    if (!category.empty() && event.category != category) continue;
    if (event.severity < min_severity) continue;
    if (event.ts_us < min_us || event.ts_us > max_us) continue;
    selected.push_back(&event);
  }

  const std::string format = args.get("format", "text");
  if (format == "jsonl") {
    for (const obs::RecorderEvent* event : selected) {
      std::printf("%s\n", obs::event_to_json(*event).c_str());
    }
  } else if (format == "text") {
    for (const obs::RecorderEvent* event : selected) {
      std::printf("%8llu us  %-7s %-8s %s/%s",
                  static_cast<unsigned long long>(event->ts_us),
                  obs::severity_label(event->severity),
                  event->phase.empty() ? "-" : event->phase.c_str(),
                  event->category.c_str(), event->name.c_str());
      for (const auto& [key, value] : event->fields) {
        std::printf(" %s=%s", key.c_str(), value.c_str());
      }
      std::printf("\n");
    }
  } else {
    std::fprintf(stderr, "autonet events: unknown format '%s'\n",
                 format.c_str());
    return 2;
  }
  std::fprintf(stderr, "%zu of %zu events\n", selected.size(), events.size());
  return 0;
}

int cmd_report_diff(const Args& args) {
  if (args.positional.size() < 3) return usage();
  report::DiffOptions options;
  if (args.has("threshold-pct")) {
    options.threshold_pct = std::stod(args.get("threshold-pct"));
  }
  report::ReportDiff diff;
  try {
    diff = report::diff_reports(report::load_report(args.positional[1]),
                                report::load_report(args.positional[2]),
                                options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "autonet report: %s\n", e.what());
    return 2;
  }
  // An empty diff is silent success — scripts and CI gate on the exit
  // code alone.
  if (diff.empty()) return 0;
  std::fputs(diff.to_string().c_str(), stdout);
  return 1;
}

int cmd_report(const Args& args) {
  if (!args.positional.empty() && args.positional[0] == "diff") {
    return cmd_report_diff(args);
  }
  return usage();
}

// `autonet diff`: the typed input delta between two topologies, exactly
// what an incremental run reports against its baseline.
// Deterministic output; exit 0 when identical, 1 when they differ.
int cmd_diff(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const incremental::DeltaSet delta = incremental::diff_graphs(
      load_input(args.positional[0]), load_input(args.positional[1]));
  const std::string format = args.get("format", "text");
  std::string rendered;
  if (format == "json") {
    rendered = delta.to_json(true) + "\n";
  } else if (format == "text") {
    rendered = delta.empty() ? "no differences\n" : delta.to_text();
  } else {
    std::fprintf(stderr, "autonet diff: unknown format '%s'\n", format.c_str());
    return 2;
  }
  if (args.has("out")) {
    if (write_file_checked(args.get("out"), rendered)) return 2;
  } else {
    std::fputs(rendered.c_str(), stdout);
  }
  return delta.empty() ? 0 : 1;
}

int cmd_exp(const Args& args) {
  if (args.positional.empty()) return usage();
  if (args.positional[0] == "run") return cmd_exp_run(args);
  if (args.positional[0] == "report") return cmd_exp_report(args);
  return usage();
}

int cmd_run(const Args& args) {
  if (args.positional.empty()) return usage();
  core::Workflow wf(workflow_options(args));

  // --virtual-clock: record telemetry into a private registry driven by
  // a VirtualClock, so timings, metrics exports, and the run report are
  // byte-deterministic (goldens, report diffing across machines).
  std::unique_ptr<obs::Registry> virtual_registry;
  std::optional<obs::RegistryScope> virtual_scope;
  if (args.has("virtual-clock")) {
    virtual_registry =
        std::make_unique<obs::Registry>(std::make_unique<obs::VirtualClock>());
    wf.use_telemetry(virtual_registry.get());
    virtual_scope.emplace(*virtual_registry);
  }

  // Supervision: ^C cancels cooperatively at the next phase/sub-phase
  // boundary; --deadline arms a time budget. With --checkpoint/--resume,
  // completed phases are durable and a rerun restarts after them.
  core::RunControl control;
  control.token.link_sigint();
  if (args.has("deadline")) {
    control.deadline = core::Deadline::after_ms(
        static_cast<std::uint64_t>(std::stoll(args.get("deadline"))));
  }
  wf.use_control(&control);
  const std::string ckpt_dir =
      args.has("resume") ? args.get("resume") : args.get("checkpoint");
  if (!ckpt_dir.empty()) wf.checkpoint_to(ckpt_dir);

  // Incremental: chain off a previous run's checkpoint directory. The
  // baseline is read-only; pair with --checkpoint DIR to leave a
  // directory the next run in the chain can use as its baseline.
  if (args.has("incremental") && !args.has("since")) {
    std::fprintf(stderr, "autonet run: --incremental needs --since DIR "
                         "(a previous run's --checkpoint directory)\n");
    return 2;
  }
  if (args.has("since")) wf.incremental_from(args.get("since"));

  auto interrupted = [&](const core::Interrupted& e, int code) {
    std::fprintf(stderr, "autonet run: %s\n", e.what());
    if (!ckpt_dir.empty()) {
      std::fprintf(stderr,
                   "completed phases are checkpointed; resume with:\n"
                   "  autonet run %s --resume %s\n",
                   args.positional[0].c_str(), ckpt_dir.c_str());
    }
    return code;
  };

  // The run report lands next to the checkpoint (the library removes an
  // interrupted run's post-mortem once a resume records a phase) and at
  // --report FILE when given. Byte-deterministic: a resumed run writes
  // the same bytes an uninterrupted one would.
  auto write_report = [&]() {
    std::vector<std::string> targets;
    if (!ckpt_dir.empty()) targets.push_back(ckpt_dir + "/" + core::kRunReportFile);
    if (args.has("report")) targets.push_back(args.get("report"));
    for (const std::string& path : targets) {
      try {
        report::write_run_report(wf, path);
        std::printf("run report written to %s\n", path.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "autonet run: cannot write %s: %s\n", path.c_str(),
                     e.what());
      }
    }
  };

  try {
    wf.run(load_input(args.positional[0]));
  } catch (const core::DeadlineExceeded& e) {
    return interrupted(e, 124);
  } catch (const core::Cancelled& e) {
    return interrupted(e, 130);
  }
  if (!wf.restored_phases().empty()) {
    std::string from;
    for (const std::string& dir : wf.restored_from()) {
      from += (from.empty() ? "" : " and ") + dir;
    }
    std::printf("resumed from %s: restored", from.c_str());
    for (const std::string& phase : wf.restored_phases()) {
      std::printf(" %s", phase.c_str());
    }
    std::printf("\n");
  }
  if (args.has("explain") && wf.incremental_report().enabled) {
    std::fputs(wf.incremental_report().to_text().c_str(), stdout);
  }
  const auto& result = wf.deploy_result();
  std::printf("deploy: %s; %zu machines; BGP %s (%zu rounds%s)\n",
              result.success ? "ok" : "FAILED", result.booted.size(),
              result.convergence.converged
                  ? "converged"
                  : (result.convergence.oscillating ? "OSCILLATING" : "incomplete"),
              result.convergence.rounds,
              result.convergence.oscillating
                  ? (", period " + std::to_string(result.convergence.period)).c_str()
                  : "");
  if (!result.success) {
    write_report();
    return 1;
  }

  // Phase 6 on a running network: validation + reachability. Gives the
  // exported trace all six pipeline phases.
  try {
    wf.measure();
  } catch (const core::DeadlineExceeded& e) {
    return interrupted(e, 124);
  } catch (const core::Cancelled& e) {
    return interrupted(e, 130);
  }
  write_report();

  int rc = 0;
  if (args.has("trace")) {
    std::ofstream file(args.get("trace"), std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", args.get("trace").c_str());
      return 1;
    }
    file << obs::to_chrome_trace(wf.telemetry());
    std::printf("trace written to %s (open in Perfetto / chrome://tracing)\n",
                args.get("trace").c_str());
  }
  if (args.has("metrics")) {
    std::ofstream file(args.get("metrics"), std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", args.get("metrics").c_str());
      return 1;
    }
    file << obs::to_prometheus(wf.telemetry());
    std::printf("metrics written to %s\n", args.get("metrics").c_str());
  }
  if (!args.traceroute.empty()) {
    auto trace = wf.measurement().traceroute(args.traceroute[0], args.traceroute[1]);
    std::printf("traceroute %s -> %s: [", args.traceroute[0].c_str(),
                args.traceroute[1].c_str());
    for (std::size_t i = 0; i < trace.node_path.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", trace.node_path[i].c_str());
    }
    std::printf("] %s\n", trace.reached ? "reached" : "UNREACHABLE");
    if (!trace.reached) rc = 1;
  }
  if (args.has("validate")) {
    auto report = wf.validate_ospf();
    std::printf("%s\n", report.to_string().c_str());
    if (!report.ok) rc = 1;
  }
  return rc;
}

int cmd_fuzz(const Args& args) {
  if (args.has("list-oracles")) {
    for (const auto& oracle : fuzz::oracle_registry()) {
      std::printf("%-19s %s\n", oracle.name.c_str(),
                  oracle.description.c_str());
    }
    return 0;
  }

  const std::string oracle_name = args.get("oracle");
  if (!oracle_name.empty() && fuzz::find_oracle(oracle_name) == nullptr) {
    std::fprintf(stderr, "autonet fuzz: unknown oracle '%s' (see --list-oracles)\n",
                 oracle_name.c_str());
    return 2;
  }

  // --replay: run committed corpus entries (a file or a whole corpus
  // directory) through their oracles; no journal, no shrinking.
  if (args.has("replay")) {
    const std::string target = args.get("replay");
    std::vector<fuzz::CorpusEntry> entries;
    if (std::filesystem::is_directory(target)) {
      entries = fuzz::list_corpus(target);
    } else {
      // A single file: the oracle comes from --oracle or the parent
      // directory name (the corpus layout).
      std::string name = oracle_name;
      if (name.empty()) {
        name = std::filesystem::path(target).parent_path().filename().string();
      }
      entries.push_back({name, target});
    }
    int rc = 0;
    std::size_t replayed = 0;
    for (const auto& entry : entries) {
      if (!oracle_name.empty() && entry.oracle != oracle_name) continue;
      const fuzz::Oracle* oracle = fuzz::find_oracle(entry.oracle);
      if (oracle == nullptr) {
        std::fprintf(stderr, "autonet fuzz: corpus entry %s names unknown oracle '%s'\n",
                     entry.path.c_str(), entry.oracle.c_str());
        return 2;
      }
      const fuzz::Scenario scenario = fuzz::load_corpus_entry(entry.path);
      const fuzz::OracleResult result = fuzz::replay_scenario(scenario, *oracle);
      ++replayed;
      const char* status = result.failed()
                               ? "FAIL"
                               : (result.status == fuzz::OracleResult::Status::kSkip
                                      ? "skip"
                                      : "pass");
      std::printf("replay %s [%s]: %s%s%s\n", entry.path.c_str(),
                  entry.oracle.c_str(), status, result.detail.empty() ? "" : " — ",
                  result.detail.c_str());
      if (result.failed()) rc = 1;
    }
    std::printf("fuzz replay: %zu entries, %s\n", replayed,
                rc == 0 ? "all clean" : "violations remain");
    return rc;
  }

  fuzz::FuzzOptions options;
  options.seed = std::strtoull(args.get("seed", "1").c_str(), nullptr, 10);
  options.runs = std::strtoull(args.get("runs", "100").c_str(), nullptr, 10);
  options.max_nodes =
      std::strtoull(args.get("max-nodes", "24").c_str(), nullptr, 10);
  options.oracle = oracle_name;
  options.time_budget_s =
      std::strtoull(args.get("time-budget", "0").c_str(), nullptr, 10);
  options.corpus_dir = args.get("corpus", "corpus");
  if (args.has("shrink-evals")) {
    options.shrink.max_evals =
        std::strtoull(args.get("shrink-evals").c_str(), nullptr, 10);
  }
  if (options.runs == 0 || options.max_nodes < 2) {
    std::fprintf(stderr, "autonet fuzz: --runs must be >= 1 and --max-nodes >= 2\n");
    return 2;
  }

  core::RunControl control;
  control.token.link_sigint();
  try {
    const fuzz::FuzzReport report = fuzz::run_fuzz(options, &control);
    std::printf("fuzz: seed %llu, %zu/%zu runs executed (%zu resumed), "
                "%zu pass, %zu skip, %zu fail, %zu shrink steps%s\n",
                static_cast<unsigned long long>(options.seed), report.executed,
                options.runs, report.resumed, report.passed, report.skipped,
                report.failed, report.shrink_steps,
                report.out_of_time ? " [time budget expired]" : "");
    for (const auto& v : report.violations) {
      std::printf("violation: run %zu seed %llu [%s] %s -> %s/%s\n", v.run,
                  static_cast<unsigned long long>(v.seed), v.oracle.c_str(),
                  v.detail.c_str(), options.corpus_dir.c_str(),
                  v.corpus_path.c_str());
    }
    std::printf("journal: %s/journal.jsonl\n", options.corpus_dir.c_str());
    return report.clean() ? 0 : 1;
  } catch (const core::Cancelled&) {
    std::fprintf(stderr, "fuzz: interrupted; journal resumes the campaign\n");
    return 130;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  Args args = Args::parse(argc, argv, 2);
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "build") return cmd_build(args);
    if (command == "check") return cmd_check(args);
    if (command == "lint") return cmd_lint(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "run") return cmd_run(args);
    if (command == "diff") return cmd_diff(args);
    if (command == "exp") return cmd_exp(args);
    if (command == "events") return cmd_events(args);
    if (command == "report") return cmd_report(args);
    if (command == "fuzz") return cmd_fuzz(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "autonet: %s\n", e.what());
    return 1;
  }
  return usage();
}
