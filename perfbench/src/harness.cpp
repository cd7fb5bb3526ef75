#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "render/config_tree.hpp"

namespace perfbench {

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::size_t Tracer::open(std::string name) {
  Record record;
  record.name = std::move(name);
  record.id = spans_.size() + 1;
  record.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
  record.op = op_;
  record.start = since(origin_);
  spans_.push_back(std::move(record));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  spans_[index].end = since(origin_);
  // Spans close in LIFO order; an out-of-order close (a bug in the
  // benchmark) is tolerated by dropping everything above it.
  while (!stack_.empty()) {
    const std::size_t top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

double Tracer::total(std::string_view name, std::size_t op) const {
  double sum = 0;
  for (const Record& r : spans_) {
    if (r.name == name && (op == 0 || r.op == op) && r.end >= r.start) {
      sum += r.end - r.start;
    }
  }
  return sum;
}

void Tracer::write(const std::filesystem::path& path) const {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << "[";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"id\": %zu, \"parent\": %zu, \"op\": %zu, \"start_s\": %.9f, "
                  "\"end_s\": %.9f}",
                  r.id, r.parent, r.op, r.start, r.end);
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << r.name << "\", " << buf;
  }
  out << "\n]\n";
  if (!out.flush()) throw std::runtime_error("error writing " + path.string());
}

Span::Span(Tracer& tracer, std::string name) : tracer_(&tracer) {
  if (tracer.enabled()) index_ = tracer.open(std::move(name)) + 1;
  start_ = Clock::now();
}

double Span::stop() {
  if (seconds_ < 0) {
    seconds_ = since(start_);
    if (index_ != 0) tracer_->close(index_ - 1);
  }
  return seconds_;
}

bool Outcome::check(bool ok, const std::string& what) {
  if (!ok) {
    problems.push_back(what);
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  return ok;
}

void digest(Outcome& out, std::map<std::string, std::string>& seen,
            const std::string& workload, const std::string& artifact,
            const std::string& hex) {
  const auto [it, fresh] = seen.emplace(artifact, hex);
  if (fresh) {
    std::printf("digest %s %s %s\n", workload.c_str(), artifact.c_str(),
                hex.c_str());
    return;
  }
  out.check(it->second == hex, "digest of " + artifact + " changed within the run (" +
                                   it->second + " then " + hex + ")");
}

std::uint64_t fnv1a(std::string_view data, std::uint64_t h) {
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::string digest_configs(const autonet::render::ConfigTree& tree) {
  std::uint64_t h = fnv1a("");
  for (const auto& [path, content] : tree) {
    h = fnv1a(path, h);
    h = fnv1a(std::string_view("\0", 1), h);
    h = fnv1a(content, h);
    h = fnv1a(std::string_view("\0", 1), h);
  }
  return hex(h);
}

std::string digest_text(std::string_view text) { return hex(fnv1a(text)); }

ScratchDir::ScratchDir(const std::filesystem::path& parent) {
  std::filesystem::create_directories(parent);
  std::string pattern = (parent / "run-XXXXXX").string();
  if (mkdtemp(pattern.data()) == nullptr) {
    throw std::runtime_error("cannot create scratch directory under " +
                             parent.string());
  }
  path_ = pattern;
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::uintmax_t dir_bytes(const std::filesystem::path& dir) {
  std::uintmax_t bytes = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
