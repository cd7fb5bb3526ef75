#include "verify/analysis/workspace.hpp"

namespace autonet::verify::analysis {

const Model& Workspace::model() const {
  std::call_once(model_once_, [this] {
    hash_ = nidb_content_hash(*nidb_);
    model_ = Model::from_nidb(*nidb_);
  });
  return model_;
}

std::uint64_t Workspace::content_hash() const {
  model();  // ensures hash_ is set
  return hash_;
}

std::shared_ptr<const Prediction> Workspace::predict_cached(
    const std::set<addressing::Ipv4Prefix>& failed_subnets) const {
  const Model& m = model();
  const std::uint64_t key = failed_subnets.empty()
                                ? content_hash()
                                : whatif_key(content_hash(), failed_subnets);
  bool hit = false;
  auto prediction = FibCache::global().get(
      key, [&] { return predict(m, failed_subnets); }, &hit);
  if (hit) {
    fib_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    fib_builds_.fetch_add(1, std::memory_order_relaxed);
    spf_runs_.fetch_add(prediction->spf_runs, std::memory_order_relaxed);
    bgp_rounds_.fetch_add(prediction->bgp_rounds, std::memory_order_relaxed);
    decision_reruns_.fetch_add(prediction->decision_reruns, std::memory_order_relaxed);
  }
  return prediction;
}

std::shared_ptr<const Prediction> Workspace::baseline() const {
  std::call_once(baseline_once_, [this] { baseline_ = predict_cached({}); });
  return baseline_;
}

std::shared_ptr<const Prediction> Workspace::whatif(
    const std::set<addressing::Ipv4Prefix>& failed_subnets) const {
  whatif_scenarios_.fetch_add(1, std::memory_order_relaxed);
  return predict_cached(failed_subnets);
}

const PathTable& Workspace::baseline_table() const {
  std::call_once(table_once_, [this] { table_.emplace(model(), *baseline()); });
  return *table_;
}

const std::vector<std::vector<Path>>& Workspace::baseline_paths() const {
  std::call_once(paths_once_, [this] {
    const PathTable& table = baseline_table();
    const std::size_t n = table.size();
    paths_.assign(n, std::vector<Path>(n));
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t d = 0; d < n; ++d) {
        if (s != d) paths_[s][d] = table.path(model(), s, d);
      }
    }
  });
  return paths_;
}

Stats Workspace::stats() const {
  Stats out;
  out.fib_builds = fib_builds_.load(std::memory_order_relaxed);
  out.fib_cache_hits = fib_cache_hits_.load(std::memory_order_relaxed);
  out.spf_runs = spf_runs_.load(std::memory_order_relaxed);
  out.bgp_rounds = bgp_rounds_.load(std::memory_order_relaxed);
  out.decision_reruns = decision_reruns_.load(std::memory_order_relaxed);
  out.whatif_scenarios = whatif_scenarios_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace autonet::verify::analysis
