#include "fuzz/session.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/rng.hpp"
#include "nidb/value.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"

namespace autonet::fuzz {

namespace {

namespace fs = std::filesystem;

/// The campaign identity line: a journal belongs to exactly one
/// (seed, runs, max_nodes, oracle) tuple; anything else starts fresh.
std::string campaign_header(const FuzzOptions& options) {
  return "{\"campaign\":{\"seed\":" + std::to_string(options.seed) +
         ",\"runs\":" + std::to_string(options.runs) +
         ",\"max_nodes\":" + std::to_string(options.max_nodes) +
         ",\"oracle\":\"" + obs::json_escape(options.oracle) + "\"}}";
}

std::string record_line(const FuzzRunRecord& r) {
  return "{\"run\":" + std::to_string(r.run) +
         ",\"seed\":" + std::to_string(r.seed) + ",\"oracle\":\"" +
         obs::json_escape(r.oracle) + "\",\"scenario\":\"" +
         obs::json_escape(r.scenario) + "\",\"status\":\"" + r.status +
         "\",\"detail\":\"" + obs::json_escape(r.detail) + "\",\"corpus\":\"" +
         obs::json_escape(r.corpus_path) + "\"}";
}

std::string string_field(const nidb::Value& record, const char* key) {
  const nidb::Value* v = record.find(key);
  const std::string* s = v != nullptr ? v->as_string() : nullptr;
  return s != nullptr ? *s : "";
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// The oracles this campaign schedules, in registry order.
std::vector<const Oracle*> enabled_oracles(const FuzzOptions& options) {
  std::vector<const Oracle*> out;
  if (!options.oracle.empty()) {
    if (const Oracle* oracle = find_oracle(options.oracle)) out.push_back(oracle);
    return out;
  }
  for (const Oracle& oracle : oracle_registry()) out.push_back(&oracle);
  return out;
}

}  // namespace

OracleResult replay_scenario(const Scenario& s, const Oracle& oracle) {
  return oracle.run(s);
}

FuzzReport run_fuzz(const FuzzOptions& options, core::RunControl* control) {
  FuzzReport report;
  const std::vector<const Oracle*> oracles = enabled_oracles(options);
  if (oracles.empty()) {
    throw std::runtime_error("fuzz: unknown oracle '" + options.oracle + "'");
  }

  fs::create_directories(options.corpus_dir);
  const std::string journal_path =
      (fs::path(options.corpus_dir) / "journal.jsonl").string();
  const std::string header = campaign_header(options);

  // Resume: adopt the existing journal's recorded runs when it belongs
  // to this exact campaign; otherwise start the journal over.
  std::vector<std::optional<nidb::Value>> done(options.runs);  // by run index
  bool fresh = true;
  if (fs::exists(journal_path)) {
    const std::vector<std::string> lines = read_lines(journal_path);
    if (!lines.empty() && lines.front() == header) {
      fresh = false;
      for (std::size_t i = 1; i < lines.size(); ++i) {
        nidb::Value record;
        try {
          record = nidb::parse_json(lines[i]);
        } catch (const std::exception&) {
          continue;  // a line torn by a kill mid-append: run it again
        }
        const nidb::Value* run = record.find("run");
        const std::int64_t index = run != nullptr ? run->as_int().value_or(-1) : -1;
        if (index >= 0 && static_cast<std::size_t>(index) < options.runs) {
          done[static_cast<std::size_t>(index)] = std::move(record);
        }
      }
    }
  }
  if (fresh) core::write_file_atomic(journal_path, header + "\n");

  auto& registry = obs::Registry::current();
  const auto started = std::chrono::steady_clock::now();
  auto out_of_budget = [&] {
    if (options.time_budget_s == 0) return false;
    const auto elapsed = std::chrono::steady_clock::now() - started;
    return std::chrono::duration_cast<std::chrono::seconds>(elapsed).count() >=
           static_cast<std::int64_t>(options.time_budget_s);
  };

  for (std::size_t i = 0; i < options.runs; ++i) {
    core::checkpoint(control, "fuzz.run");

    FuzzRunRecord record;
    record.run = i;
    // The journalled seed is this same value: the header pins the
    // campaign seed.
    record.seed = mix(options.seed, i);

    if (done[i]) {
      // Satisfied from the journal: count it without re-executing.
      record.oracle = string_field(*done[i], "oracle");
      record.scenario = string_field(*done[i], "scenario");
      record.status = string_field(*done[i], "status");
      record.detail = string_field(*done[i], "detail");
      record.corpus_path = string_field(*done[i], "corpus");
      ++report.resumed;
    } else {
      if (out_of_budget()) {
        report.out_of_time = true;
        break;
      }
      const Oracle& oracle = *oracles[i % oracles.size()];
      record.oracle = oracle.name;

      Scenario scenario = generate_scenario(record.seed, options.max_nodes);
      record.scenario = scenario.summary;
      const OracleResult result = oracle.run(scenario);

      ++report.executed;
      registry.counter("fuzz.runs").inc();
      registry.counter("fuzz." + oracle.name + ".runs").inc();

      if (result.failed()) {
        registry.counter("fuzz.failures").inc();
        registry.counter("fuzz." + oracle.name + ".failures").inc();
        const ShrinkResult shrunk =
            shrink(scenario, oracle, options.shrink);
        report.shrink_steps += shrunk.steps;
        registry.counter("fuzz.shrink_steps").inc(shrunk.steps);
        const std::string saved = save_corpus_entry(
            options.corpus_dir, oracle.name, shrunk.scenario, shrunk.detail);
        record.status = "fail";
        record.detail = shrunk.detail.empty() ? result.detail : shrunk.detail;
        record.corpus_path =
            oracle.name + "/" + std::to_string(shrunk.scenario.seed) +
            ".graphml";
        (void)saved;
      } else if (result.status == OracleResult::Status::kSkip) {
        record.status = "skip";
        record.detail = result.detail;
      } else {
        record.status = "pass";
      }
      core::append_line_durable(journal_path, record_line(record));
    }

    if (record.status == "fail") {
      ++report.failed;
      report.violations.push_back(record);
    } else if (record.status == "skip") {
      ++report.skipped;
    } else {
      ++report.passed;
    }
  }

  return report;
}

}  // namespace autonet::fuzz
