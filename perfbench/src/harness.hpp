// Shared machinery of the repo benchmark: arguments, the benchmark's own
// span recorder, metric and check bookkeeping, output digests, private
// scratch space and peak-RSS sampling. Nothing here calls into the
// library except the digest helpers, which only read its outputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace autonet::render {
class ConfigTree;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
[[nodiscard]] double since(Clock::time_point start);

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  /// Measured time per run: the closed loop starts operations until
  /// their summed time reaches this budget (always at least one).
  double seconds = 10;
  bool trace = false;
  /// Checkout root: the example campaign is read from here.
  std::filesystem::path repo;
  /// Build directory: per-process scratch space and span files go here.
  std::filesystem::path work;
  Clock::time_point process_start;
};

/// The benchmark's own span recorder. Spans are timed around calls into
/// the library from the benchmark's code, kept in memory and written out
/// once the run ends. Single-threaded: only the main thread opens spans.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::size_t id = 0;      // 1-based
    std::size_t parent = 0;  // 0 = top level
    std::size_t op = 0;      // operation id shared by the spans of one op
    double start = 0;        // seconds since the tracer was created
    double end = -1;         // < start while open
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Starts a new operation; spans opened afterwards carry its id.
  std::size_t next_op() { return ++op_; }
  [[nodiscard]] std::size_t op() const { return op_; }

  /// Summed duration of the spans named `name` (of operation `op`, or of
  /// every operation when op is 0). A span's self time — its duration
  /// minus its children's — follows from the written span file.
  [[nodiscard]] double total(std::string_view name, std::size_t op = 0) const;

  /// Writes every span as one JSON array.
  void write(const std::filesystem::path& path) const;

 private:
  friend class Span;
  std::size_t open(std::string name);
  void close(std::size_t index);

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<std::size_t> stack_;
  std::size_t op_ = 0;
};

/// One timed call. With tracing off it is a plain stopwatch, so timed
/// and traced runs share one code path.
class Span {
 public:
  Span(Tracer& tracer, std::string name);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent) and returns its duration in seconds.
  double stop();
  /// Seconds since the span opened, without closing it.
  [[nodiscard]] double elapsed() const { return since(start_); }

 private:
  Tracer* tracer_;
  std::size_t index_ = 0;
  Clock::time_point start_;
  double seconds_ = -1;
};

/// What one run of a workload produced: operation counts, failed checks
/// and metric values by name.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, double> metrics;

  /// Records a failed check (printed on stderr) when `ok` is false.
  bool check(bool ok, const std::string& what);
  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// Prints "digest <workload> <artifact> <hex>" and records the value in
/// `seen`; a different value for an artifact already seen in this run
/// is a failed check.
void digest(Outcome& out, std::map<std::string, std::string>& seen,
            const std::string& workload, const std::string& artifact,
            const std::string& hex);

/// FNV-1a 64 over `data`, continuing from `h`. The benchmark keeps its
/// own copy: a digest must not change when the library's hashing does.
[[nodiscard]] std::uint64_t fnv1a(std::string_view data,
                                  std::uint64_t h = 14695981039346656037ull);
[[nodiscard]] std::string hex(std::uint64_t value);
/// Digest of a rendered configuration tree: every path and its content,
/// in the tree's (sorted) order.
[[nodiscard]] std::string digest_configs(const autonet::render::ConfigTree& tree);
/// Hex digest of one string.
[[nodiscard]] std::string digest_text(std::string_view text);

/// A fresh directory private to this process, removed with everything
/// in it when the object is destroyed.
class ScratchDir {
 public:
  explicit ScratchDir(const std::filesystem::path& parent);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Bytes under `dir`, recursively.
[[nodiscard]] std::uintmax_t dir_bytes(const std::filesystem::path& dir);

/// Peak resident set of this process so far, in MB. Workloads sample it
/// once, right after their first timed operation, so it does not grow
/// with the number of operations that fit in --seconds.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated percentile, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// The benchmark's input generator: every workload derives its inputs
/// from the --seed through this, never from the clock.
using Rng = std::mt19937_64;

/// Times repeated set-ups for setup_s, the median time of one. The
/// first is timed from `process_start`, so it also carries the process's
/// start-up and the filling of static caches. On a shared host the speed
/// of a short stretch of work is luck that can hold for seconds, so a
/// cheap set-up is repeated in bursts spread over the run — one before
/// the first operation and one after each — and its median sees the same
/// mix of host states as the operations'.
class SetupClock {
 public:
  explicit SetupClock(Clock::time_point process_start) : process_start_(process_start) {}

  /// Runs `setup` at least `min_reps` times and until `min_seconds` have
  /// passed.
  template <typename Setup>
  void burst(int min_reps, double min_seconds, Setup&& setup) {
    const Clock::time_point first = Clock::now();
    for (int reps = 0; reps < min_reps || since(first) < min_seconds; ++reps) {
      const Clock::time_point start = times_.empty() ? process_start_ : Clock::now();
      setup();
      times_.push_back(since(start));
    }
  }

  [[nodiscard]] double median() const { return perfbench::median(times_); }

 private:
  Clock::time_point process_start_;
  std::vector<double> times_;
};

/// Runs `op` (which returns its measured seconds) in a closed loop until
/// the measured time reaches `budget` and at least `min_ops` operations
/// have run. Returns the per-operation times.
template <typename Op>
std::vector<double> closed_loop(double budget, std::size_t min_ops, Op&& op) {
  std::vector<double> times;
  double total = 0;
  while (times.size() < min_ops || total < budget) {
    const double t = op();
    times.push_back(t);
    total += t;
  }
  return times;
}

}  // namespace perfbench
