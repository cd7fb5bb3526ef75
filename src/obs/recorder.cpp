#include "obs/recorder.hpp"

#include <algorithm>

#include "obs/export.hpp"
#include "obs/registry.hpp"

namespace autonet::obs {

namespace {

std::uint64_t next_recorder_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// One-entry thread-local cache: the last (recorder, segment) pair this
// thread recorded into. Keyed by recorder id, never by address, so a
// recorder reallocated where a dead one lived cannot hit a stale entry.
struct SegmentCache {
  std::uint64_t recorder_id = 0;
  void* segment = nullptr;
};
thread_local SegmentCache t_segment_cache;

thread_local PhaseScope* t_phase_scope = nullptr;

}  // namespace

FlightRecorder::FlightRecorder(std::size_t segment_capacity)
    : capacity_(segment_capacity == 0 ? 1 : segment_capacity),
      id_(next_recorder_id()) {}

FlightRecorder::~FlightRecorder() {
  // Invalidate this thread's cache eagerly; other threads' stale entries
  // are defused by the id check.
  if (t_segment_cache.recorder_id == id_) t_segment_cache = {};
}

FlightRecorder::Segment& FlightRecorder::segment_for_this_thread() {
  if (t_segment_cache.recorder_id == id_ && t_segment_cache.segment != nullptr) {
    return *static_cast<Segment*>(t_segment_cache.segment);
  }
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [tid, segment] : segments_) {
    if (tid == self) {
      t_segment_cache = {id_, segment.get()};
      return *segment;
    }
  }
  segments_.emplace_back(self, std::make_unique<Segment>(capacity_));
  Segment* segment = segments_.back().second.get();
  t_segment_cache = {id_, segment};
  return *segment;
}

void FlightRecorder::record(RecorderEvent event) {
  event.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  Segment& segment = segment_for_this_thread();
  const std::uint64_t head = segment.head.load(std::memory_order_relaxed);
  segment.slots[head % capacity_] = std::move(event);
  segment.head.store(head + 1, std::memory_order_release);
}

void FlightRecorder::inject(const std::vector<RecorderEvent>& events) {
  for (const RecorderEvent& event : events) record(event);
}

std::vector<RecorderEvent> FlightRecorder::drain() {
  std::vector<RecorderEvent> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [tid, segment] : segments_) {
    (void)tid;
    const std::uint64_t head = segment->head.load(std::memory_order_acquire);
    std::uint64_t lo = segment->next_read;
    if (head - lo > capacity_) {
      // The ring lapped the last drain point: the oldest events are
      // gone. Account for them and pick up at the survivors.
      dropped_.fetch_add((head - capacity_) - lo, std::memory_order_relaxed);
      lo = head - capacity_;
    }
    for (std::uint64_t i = lo; i < head; ++i) {
      out.push_back(segment->slots[i % capacity_]);
    }
    segment->next_read = head;
  }
  std::sort(out.begin(), out.end(),
            [](const RecorderEvent& a, const RecorderEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

PhaseScope::PhaseScope(std::string name) : name_(std::move(name)) {
  start_us_ = Registry::current().peek_us();
  previous_ = t_phase_scope;
  t_phase_scope = this;
}

PhaseScope::~PhaseScope() { t_phase_scope = previous_; }

const PhaseScope* PhaseScope::current() { return t_phase_scope; }

void record(std::string category, Severity severity, std::string name,
            Fields fields) {
  Registry& registry = Registry::current();
  if (!registry.enabled()) return;
  RecorderEvent event;
  const std::uint64_t now = registry.peek_us();
  if (const PhaseScope* phase = PhaseScope::current()) {
    event.phase = phase->name();
    event.ts_us = now >= phase->start_us() ? now - phase->start_us() : 0;
  } else {
    event.ts_us = now;
  }
  event.category = std::move(category);
  event.severity = severity;
  event.name = std::move(name);
  event.fields = std::move(fields);
  registry.recorder().record(std::move(event));
}

std::string event_to_json(const RecorderEvent& event) {
  std::string out = "{\"ts_us\":" + std::to_string(event.ts_us);
  out += ",\"phase\":\"" + json_escape(event.phase) + "\"";
  out += ",\"category\":\"" + json_escape(event.category) + "\"";
  out += ",\"severity\":\"";
  out += severity_label(event.severity);
  out += "\",\"name\":\"" + json_escape(event.name) + "\"";
  out += ",\"fields\":{";
  Fields sorted = event.fields;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  bool first = true;
  for (const auto& [key, value] : sorted) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(key) + "\":\"" + json_escape(value) + "\"";
  }
  out += "}}";
  return out;
}

std::string events_to_jsonl(const std::vector<RecorderEvent>& events) {
  std::string out;
  for (const RecorderEvent& event : events) {
    out += event_to_json(event);
    out += "\n";
  }
  return out;
}

}  // namespace autonet::obs
