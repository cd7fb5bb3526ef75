#include "verify/rules.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <future>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "nidb/value.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "verify/analysis/cache.hpp"
#include "verify/analysis/workspace.hpp"
#include "verify/index.hpp"

namespace autonet::verify {

void Emitter::emit(std::string device, std::string message, std::string path) {
  Finding f;
  f.severity = severity_;
  f.code = info_->id;
  f.device = std::move(device);
  f.message = std::move(message);
  f.path = std::move(path);
  f.origin = info_->origin;
  report_->findings.push_back(std::move(f));
  ++emitted_;
}

void RuleRegistry::add(Rule rule) {
  auto [it, inserted] = by_id_.emplace(rule.info.id, rules_.size());
  if (!inserted) {
    throw std::invalid_argument("duplicate lint rule id '" + rule.info.id + "'");
  }
  rules_.push_back(std::move(rule));
}

const Rule* RuleRegistry::find(std::string_view id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : &rules_[it->second];
}

const RuleRegistry& RuleRegistry::builtin() {
  static const RuleRegistry registry = [] {
    RuleRegistry r;
    register_nidb_rules(r);
    register_signaling_rules(r);
    register_template_rules(r);
    return r;
  }();
  return registry;
}

const RuleRegistry& RuleRegistry::with_analysis() {
  static const RuleRegistry registry = [] {
    RuleRegistry r;
    register_nidb_rules(r);
    register_signaling_rules(r);
    register_template_rules(r);
    register_analysis_rules(r);
    return r;
  }();
  return registry;
}

bool LintOptions::rule_enabled(std::string_view id) const {
  auto it = enabled.find(id);
  return it == enabled.end() ? true : it->second;
}

Severity LintOptions::severity_for(const RuleInfo& info) const {
  auto it = severity.find(info.id);
  return it == severity.end() ? info.default_severity : it->second;
}

bool LintOptions::should_fail(const Report& report) const {
  if (report.error_count() > 0) return true;
  return fail_on_warning && report.warning_count() > 0;
}

void LintOptions::merge(const LintOptions& other) {
  for (const auto& [id, on] : other.enabled) enabled[id] = on;
  for (const auto& [id, sev] : other.severity) severity[id] = sev;
  fail_on_warning = fail_on_warning || other.fail_on_warning;
}

namespace {

/// "file.autonetlint:3: " when a source name is known, the legacy
/// "lint config line 3: " otherwise.
std::string config_at(const std::string& source, int line) {
  if (source.empty()) return "lint config line " + std::to_string(line) + ": ";
  return source + ":" + std::to_string(line) + ": ";
}

Severity parse_severity(const std::string& word, const std::string& source,
                        int line) {
  if (word == "error") return Severity::kError;
  if (word == "warning" || word == "warn") return Severity::kWarning;
  throw std::runtime_error(config_at(source, line) + "unknown severity '" +
                           word + "'");
}

}  // namespace

LintOptions LintOptions::parse_config(std::string_view text,
                                      const std::string& source) {
  LintOptions opts;
  std::istringstream in{std::string(text)};
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    std::istringstream words(raw);
    std::string keyword;
    if (!(words >> keyword) || keyword.front() == '#') continue;
    std::string arg;
    if (keyword == "disable" || keyword == "enable") {
      if (!(words >> arg)) {
        throw std::runtime_error(config_at(source, line) + "'" + keyword +
                                 "' needs a rule id");
      }
      opts.enabled[arg] = keyword == "enable";
    } else if (keyword == "severity") {
      std::string level;
      if (!(words >> arg >> level)) {
        throw std::runtime_error(config_at(source, line) +
                                 "usage: severity <rule-id> error|warning");
      }
      opts.severity[arg] = parse_severity(level, source, line);
    } else if (keyword == "fail-on") {
      if (!(words >> arg)) {
        throw std::runtime_error(config_at(source, line) +
                                 "usage: fail-on error|warning");
      }
      opts.fail_on_warning = parse_severity(arg, source, line) == Severity::kWarning;
    } else {
      throw std::runtime_error(config_at(source, line) + "unknown directive '" +
                               keyword + "'");
    }
    std::string extra;
    if (words >> extra) {
      throw std::runtime_error(config_at(source, line) + "trailing token '" +
                               extra + "'");
    }
  }
  return opts;
}

LintOptions LintOptions::load_config_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read lint config " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_config(ss.str(), path);
}

Report run_lint(const LintInput& input, const LintOptions& options,
                const RuleRegistry& registry, core::RunControl* control) {
  Report report;
  std::optional<detail::NidbIndex> index;
  std::optional<analysis::Workspace> workspace;
  if (input.nidb != nullptr) {
    index = detail::NidbIndex::build(*input.nidb);
    workspace.emplace(*input.nidb);
  }
  const analysis::FibCache::Stats fib_before = analysis::FibCache::global().stats();

  RuleContext ctx;
  ctx.input = &input;
  ctx.index = index ? &*index : nullptr;
  ctx.analysis = workspace ? &*workspace : nullptr;

  // Rule bodies run on a worker pool; everything observable — findings,
  // spans, counters, flight-recorder events — is merged here on the
  // calling thread in registry order, so the report and all telemetry
  // stay byte-deterministic regardless of scheduling. (The obs registry
  // is thread-local; workers must not touch it.)
  struct Task {
    const Rule* rule = nullptr;
    Severity severity = Severity::kError;
    Report partial;
    std::size_t emitted = 0;
    std::exception_ptr error;
    std::promise<void> done;
    std::future<void> finished;
  };
  std::vector<Task> tasks;
  for (const Rule& rule : registry.rules()) {
    if (!options.rule_enabled(rule.info.id)) continue;
    if (rule.needs_nidb && input.nidb == nullptr) continue;
    if (rule.needs_templates && input.templates == nullptr &&
        input.template_files.empty()) {
      continue;
    }
    Task task;
    task.rule = &rule;
    task.severity = options.severity_for(rule.info);
    tasks.push_back(std::move(task));
  }
  for (Task& task : tasks) task.finished = task.done.get_future();

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> abort{false};
  auto work = [&] {
    while (!abort.load(std::memory_order_relaxed)) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) return;
      Task& task = tasks[i];
      Emitter emitter(task.rule->info, task.severity, task.partial);
      try {
        task.rule->run(ctx, emitter);
      } catch (...) {
        task.error = std::current_exception();
      }
      task.emitted = emitter.emitted();
      task.done.set_value();
    }
  };
  std::size_t workers =
      options.jobs != 0 ? options.jobs : std::thread::hardware_concurrency();
  workers = std::clamp<std::size_t>(workers, 1,
                                    std::max<std::size_t>(tasks.size(), 1));
  workers = std::min<std::size_t>(workers, 8);
  std::vector<std::thread> pool;
  struct Joiner {
    std::vector<std::thread>* pool;
    std::atomic<bool>* abort;
    ~Joiner() {
      abort->store(true, std::memory_order_relaxed);
      for (std::thread& t : *pool) t.join();
    }
  } joiner{&pool, &abort};
  if (!tasks.empty()) {
    pool.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) pool.emplace_back(work);
  }

  obs::Registry& obs = obs::Registry::current();
  auto scope = obs.scope("lint");
  std::size_t next_task = 0;
  for (const Rule& rule : registry.rules()) {
    core::checkpoint(control, "lint." + rule.info.id);
    if (next_task >= tasks.size() || tasks[next_task].rule != &rule) continue;
    Task& task = tasks[next_task++];
    obs::Span span(obs, "lint." + rule.info.id);
    task.finished.wait();
    if (task.error) std::rethrow_exception(task.error);
    span.arg("findings", std::to_string(task.emitted));
    scope.counter("rules_run").inc();
    // Verdict severity mirrors the findings: clean rules are routine,
    // warning findings warn, error findings flag the event red.
    obs::Severity verdict = obs::Severity::kInfo;
    if (task.emitted > 0) {
      scope.counter("findings").inc(task.emitted);
      scope.counter(task.severity == Severity::kError ? "errors" : "warnings")
          .inc(task.emitted);
      verdict = task.severity == Severity::kError ? obs::Severity::kError
                                                  : obs::Severity::kWarning;
    }
    obs::record("lint", verdict, rule.info.id,
                {{"findings", std::to_string(task.emitted)}});
    for (Finding& finding : task.partial.findings) {
      report.findings.push_back(std::move(finding));
    }
  }

  // Publish the analysis work counters (main thread — workers only
  // bumped the workspace's atomics). Gated on actual work so runs
  // without analysis rules emit byte-identical telemetry to before.
  if (workspace) {
    const analysis::Stats stats = workspace->stats();
    if (stats.fib_builds > 0 || stats.fib_cache_hits > 0 ||
        stats.whatif_scenarios > 0) {
      auto analysis_scope = obs.scope("analysis");
      analysis_scope.counter("fib_builds").inc(stats.fib_builds);
      analysis_scope.counter("fib_cache_hits").inc(stats.fib_cache_hits);
      analysis_scope.counter("spf_runs").inc(stats.spf_runs);
      analysis_scope.counter("bgp_rounds").inc(stats.bgp_rounds);
      analysis_scope.counter("decision_reruns").inc(stats.decision_reruns);
      analysis_scope.counter("whatif_scenarios").inc(stats.whatif_scenarios);
      obs::record("analysis", obs::Severity::kInfo, "predicted_fibs",
                  {{"fib_builds", std::to_string(stats.fib_builds)},
                   {"cache_hits", std::to_string(stats.fib_cache_hits)},
                   {"whatif_scenarios", std::to_string(stats.whatif_scenarios)}});
    }
    // FibCache traffic this run, as deltas of the process-global totals.
    // Concurrent campaign runs share the cache, so these are advisory —
    // counters never enter run reports.
    const analysis::FibCache::Stats fib_after =
        analysis::FibCache::global().stats();
    // Saturating deltas: a concurrent FibCache::clear() resets totals.
    auto delta = [](std::uint64_t now, std::uint64_t then) {
      return now >= then ? now - then : now;
    };
    const std::uint64_t hits = delta(fib_after.hits, fib_before.hits);
    const std::uint64_t misses = delta(fib_after.misses, fib_before.misses);
    const std::uint64_t evictions = delta(fib_after.evictions, fib_before.evictions);
    if (hits + misses + evictions > 0) {
      auto fib_scope = obs.scope("fibcache");
      fib_scope.counter("hit").inc(hits);
      fib_scope.counter("miss").inc(misses);
      fib_scope.counter("evict").inc(evictions);
    }
  }
  report.finalize();
  return report;
}

std::string to_sarif(const Report& report, const RuleRegistry& registry) {
  using nidb::Array;
  using nidb::Object;
  using nidb::Value;

  Object driver;
  driver["name"] = "autonet-lint";
  driver["informationUri"] = "https://example.org/autonet/docs/static_analysis";
  driver["version"] = "1.0.0";
  Array rules;
  for (const Rule& rule : registry.rules()) {
    Object r;
    r["id"] = rule.info.id;
    Object desc;
    desc["text"] = rule.info.description;
    r["shortDescription"] = Value(std::move(desc));
    Object props;
    props["category"] = rule.info.category;
    if (!rule.info.origin.empty()) props["origin"] = rule.info.origin;
    r["properties"] = Value(std::move(props));
    Object config;
    config["level"] = std::string(severity_name(rule.info.default_severity));
    r["defaultConfiguration"] = Value(std::move(config));
    rules.emplace_back(std::move(r));
  }
  driver["rules"] = Value(std::move(rules));

  Array results;
  for (const Finding& f : report.findings) {
    Object result;
    result["ruleId"] = f.code;
    result["level"] = std::string(severity_name(f.severity));
    Object message;
    message["text"] = f.message;
    result["message"] = Value(std::move(message));
    if (!f.device.empty() || !f.path.empty()) {
      Object logical;
      if (!f.device.empty()) logical["name"] = f.device;
      logical["fullyQualifiedName"] =
          f.device.empty() ? f.path
                           : (f.path.empty() ? f.device : f.device + "." + f.path);
      Object location;
      location["logicalLocations"] = Value(Array{Value(std::move(logical))});
      result["locations"] = Value(Array{Value(std::move(location))});
    }
    if (!f.origin.empty()) {
      Object props;
      props["origin"] = f.origin;
      result["properties"] = Value(std::move(props));
    }
    results.emplace_back(std::move(result));
  }

  Object tool;
  tool["driver"] = Value(std::move(driver));
  Object run;
  run["tool"] = Value(std::move(tool));
  run["results"] = Value(std::move(results));
  Object doc;
  doc["$schema"] = "https://json.schemastore.org/sarif-2.1.0.json";
  doc["version"] = "2.1.0";
  doc["runs"] = Value(Array{Value(std::move(run))});
  return Value(std::move(doc)).to_json(true);
}

}  // namespace autonet::verify
