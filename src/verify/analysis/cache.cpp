#include "verify/analysis/cache.hpp"

#include <string>

#include "core/hash.hpp"

namespace autonet::verify::analysis {

std::uint64_t nidb_content_hash(const nidb::Nidb& nidb) {
  return fnv1a(nidb.to_json(false));
}

std::uint64_t whatif_key(std::uint64_t base,
                         const std::set<addressing::Ipv4Prefix>& failed_subnets) {
  std::string tail;
  for (const auto& subnet : failed_subnets) {
    tail += subnet.to_string();
    tail += '|';
  }
  // Mix the base hash in so the same failure set over different designs
  // never collides by construction of the tail alone.
  return base ^ (fnv1a(tail) + 0x9e3779b97f4a7c15ULL + (base << 6) + (base >> 2));
}

FibCache& FibCache::global() {
  static FibCache cache;
  return cache;
}

std::shared_ptr<const Prediction> FibCache::get(
    std::uint64_t key, const std::function<Prediction()>& compute, bool* hit) {
  std::promise<std::shared_ptr<const Prediction>> promise;
  std::shared_future<std::shared_ptr<const Prediction>> future;
  bool mine = false;
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      future = it->second.future;
      lru_.splice(lru_.begin(), lru_, it->second.lru);  // bump to MRU
    } else {
      ++stats_.misses;
      future = promise.get_future().share();
      lru_.push_front(key);
      entries_.emplace(key, Slot{future, lru_.begin()});
      mine = true;
      trim_locked();
    }
  }
  if (hit != nullptr) *hit = !mine;
  if (mine) {
    try {
      promise.set_value(std::make_shared<const Prediction>(compute()));
    } catch (...) {
      // Propagate to every waiter, then drop the entry so a later call
      // can retry instead of re-observing a stale failure. The entry may
      // already be gone if trimming evicted it mid-compute.
      promise.set_exception(std::current_exception());
      std::lock_guard lock(mu_);
      if (auto it = entries_.find(key); it != entries_.end()) {
        lru_.erase(it->second.lru);
        entries_.erase(it);
      }
    }
  }
  return future.get();
}

void FibCache::trim_locked() {
  while (entries_.size() > capacity_ && !lru_.empty()) {
    auto victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

FibCache::Stats FibCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void FibCache::set_capacity(std::size_t entries) {
  std::lock_guard lock(mu_);
  capacity_ = entries;
  trim_locked();
}

std::size_t FibCache::capacity() const {
  std::lock_guard lock(mu_);
  return capacity_;
}

void FibCache::clear() {
  std::lock_guard lock(mu_);
  entries_.clear();
  lru_.clear();
  stats_ = {};
}

std::size_t FibCache::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

}  // namespace autonet::verify::analysis
