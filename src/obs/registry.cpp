#include "obs/registry.hpp"

#include <set>

#include "obs/recorder.hpp"

namespace autonet::obs {

namespace {
thread_local Registry* t_current = nullptr;

// Live-registry set backing Registry::alive(). A plain static (not a
// function-local) would race with registries destroyed after main();
// keep it function-local so it outlives global() and every test-scoped
// registry.
std::mutex& live_mutex() {
  static std::mutex m;
  return m;
}
std::set<const Registry*>& live_registries() {
  static std::set<const Registry*> s;
  return s;
}
}  // namespace

Registry::Registry()
    : clock_(std::make_unique<RealClock>()),
      recorder_(std::make_unique<FlightRecorder>()) {
  std::lock_guard lock(live_mutex());
  live_registries().insert(this);
}

Registry::Registry(std::unique_ptr<Clock> clock)
    : clock_(std::move(clock)),
      recorder_(std::make_unique<FlightRecorder>()) {
  std::lock_guard lock(live_mutex());
  live_registries().insert(this);
}

Registry::~Registry() {
  std::lock_guard lock(live_mutex());
  live_registries().erase(this);
}

bool Registry::alive(const Registry* registry) {
  std::lock_guard lock(live_mutex());
  return live_registries().count(registry) != 0;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Registry& Registry::current() {
  return t_current != nullptr ? *t_current : global();
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void Registry::record_span(TraceEvent event) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  if (spans_.size() >= kMaxEvents) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(std::move(event));
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counter_values()
    const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, std::int64_t>> Registry::gauge_values() const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) out.emplace_back(name, gauge->value());
  return out;
}

std::vector<Registry::HistogramSnapshot> Registry::histogram_values() const {
  std::lock_guard lock(mutex_);
  std::vector<HistogramSnapshot> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot snap;
    snap.name = name;
    snap.count = histogram->count();
    snap.sum = histogram->sum();
    snap.buckets.resize(Histogram::kBuckets + 1);
    for (std::size_t i = 0; i <= Histogram::kBuckets; ++i) {
      snap.buckets[i] = histogram->bucket_count(i);
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::vector<TraceEvent> Registry::trace_events() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  spans_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

RegistryScope::RegistryScope(Registry& registry) : previous_(t_current) {
  t_current = &registry;
}

RegistryScope::~RegistryScope() { t_current = previous_; }

}  // namespace autonet::obs
