// Shared state for one analysis run: the symbolic model, the baseline
// prediction, its all-pairs forwarding table, and what-if predictions, each
// computed lazily and exactly once no matter how many rule threads ask.
// Deliberately obs-free — the obs registry is thread-local, so all
// telemetry is published by the engine on the main thread from the
// stats() snapshot after the rules finish.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "verify/analysis/cache.hpp"
#include "verify/analysis/model.hpp"

namespace autonet::verify::analysis {

/// Work counters for one analysis run (snapshot, plain values).
struct Stats {
  std::size_t fib_builds = 0;        // predictions computed (cache misses)
  std::size_t fib_cache_hits = 0;    // predictions served from the cache
  std::size_t spf_runs = 0;          // Dijkstra invocations across builds
  std::size_t bgp_rounds = 0;        // BGP propagation rounds across builds
  std::size_t decision_reruns = 0;   // BGP decision reruns across builds
  std::size_t whatif_scenarios = 0;  // failure scenarios evaluated
};

class Workspace {
 public:
  explicit Workspace(const nidb::Nidb& nidb) : nidb_(&nidb) {}
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The symbolic model, built on first use.
  const Model& model() const;
  /// FNV-1a content hash of the NIDB backing this workspace.
  std::uint64_t content_hash() const;
  /// The no-failures prediction, via the global FibCache.
  std::shared_ptr<const Prediction> baseline() const;
  /// Prediction with `failed_subnets` administratively down.
  std::shared_ptr<const Prediction> whatif(
      const std::set<addressing::Ipv4Prefix>& failed_subnets) const;
  /// The all-pairs forwarding table over the baseline prediction,
  /// indexed like Model::routers(). What the analysis rules read.
  const PathTable& baseline_table() const;
  /// All-pairs loopback-to-loopback paths, derived from baseline_table()
  /// on first use; paths()[src][dst] indexed like Model::routers().
  /// Diagonal entries are default-constructed.
  const std::vector<std::vector<Path>>& baseline_paths() const;

  [[nodiscard]] Stats stats() const;

 private:
  std::shared_ptr<const Prediction> predict_cached(
      const std::set<addressing::Ipv4Prefix>& failed_subnets) const;

  const nidb::Nidb* nidb_;
  mutable std::once_flag model_once_;
  mutable std::once_flag baseline_once_;
  mutable std::once_flag table_once_;
  mutable std::once_flag paths_once_;
  mutable Model model_;
  mutable std::uint64_t hash_ = 0;
  mutable std::shared_ptr<const Prediction> baseline_;
  mutable std::optional<PathTable> table_;
  mutable std::vector<std::vector<Path>> paths_;

  mutable std::atomic<std::size_t> fib_builds_{0};
  mutable std::atomic<std::size_t> fib_cache_hits_{0};
  mutable std::atomic<std::size_t> spf_runs_{0};
  mutable std::atomic<std::size_t> bgp_rounds_{0};
  mutable std::atomic<std::size_t> decision_reruns_{0};
  mutable std::atomic<std::size_t> whatif_scenarios_{0};
};

}  // namespace autonet::verify::analysis
