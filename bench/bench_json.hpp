// Shared benchmark harness: every bench binary reports through the
// standard console reporter AND records each run as one JSON row,
// written to BENCH_<suite>.json — machine-readable results the scaling
// scripts and CI can diff without scraping console text.
//
// Usage: replace BENCHMARK_MAIN() with AUTONET_BENCH_MAIN("suite"), or
// call autonet::benchjson::run_and_export() from a custom main().
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/registry.hpp"

namespace autonet::benchjson {

/// Console reporter that additionally keeps one row per completed run
/// ({"kind":"bench","name":...,"wall_ms":...,"iterations":...,
/// "counter.<name>":...}, every value a string). Subclassing the display
/// reporter guarantees we see every run regardless of --benchmark_*
/// output flags.
class Collector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    char buf[64];
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      std::string row = "{\"kind\":\"bench\"";
      auto field = [&row](const std::string& key, const std::string& value) {
        row += ",\"" + obs::json_escape(key) + "\":\"" + obs::json_escape(value) + "\"";
      };
      field("name", run.benchmark_name());
      const double wall_ms =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations) * 1e3
              : 0.0;
      std::snprintf(buf, sizeof buf, "%.6f", wall_ms);
      field("wall_ms", buf);
      field("iterations", std::to_string(run.iterations));
      for (const auto& [name, counter] : run.counters) {
        std::snprintf(buf, sizeof buf, "%g", counter.value);
        field("counter." + name, buf);
      }
      rows_.push_back(row + "}");
    }
    ConsoleReporter::ReportRuns(reports);
  }

  /// The rows as one JSON array document, one row per line.
  [[nodiscard]] std::string to_json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += (i > 0 ? ",\n  " : "\n  ") + rows_[i];
    }
    return out + "\n]";
  }

 private:
  std::vector<std::string> rows_;
};

/// Initializes Google Benchmark, runs the registered benchmarks, and
/// writes BENCH_<suite>.json into the working directory.
inline int run_and_export(const std::string& suite, int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // The library's own telemetry is off while benchmarking: the numbers
  // must measure the pipeline, not its instrumentation.
  obs::Registry::global().set_enabled(false);
  Collector collector;
  benchmark::RunSpecifiedBenchmarks(&collector);
  const std::string path = "BENCH_" + suite + ".json";
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << collector.to_json() << "\n";
  std::printf("# machine-readable results: %s\n", path.c_str());
  return 0;
}

}  // namespace autonet::benchjson

#define AUTONET_BENCH_MAIN(suite)                                 \
  int main(int argc, char** argv) {                               \
    return autonet::benchjson::run_and_export(suite, argc, argv); \
  }
