#include "obs/export.hpp"

#include <sstream>

#include "core/json_escape.hpp"

namespace autonet::obs {

namespace {

/// "render.device.us" -> "autonet_render_device_us". Dots, hyphens and
/// anything else outside [a-zA-Z0-9_] become underscores; the fixed
/// "autonet_" prefix keeps the result from starting with a digit, so
/// the output always matches the exposition-format name grammar.
std::string prometheus_name(std::string_view name) {
  std::string out = "autonet_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

/// Escaping for "# HELP" text: the exposition format requires backslash
/// and line feed escaped (and nothing else).
std::string prometheus_help_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

/// Help text for a metric. Well-known families get real descriptions;
/// everything else falls back to naming its dotted source metric so the
/// exposition stays self-describing.
std::string prometheus_help(std::string_view name) {
  struct Entry {
    std::string_view prefix;
    std::string_view help;
  };
  static constexpr Entry kFamilies[] = {
      {"ckpt.", "Checkpoint store activity (core/checkpoint)."},
      {"cancel.", "Cooperative cancellation observations (core/cancel)."},
      {"deadline.", "Run deadline observations (core/cancel)."},
      {"deploy.", "Deployment attempts, retries and faults (deploy/)."},
      {"emulation.", "Control-plane emulation statistics (emulation/)."},
      {"lint.", "Static-analysis rule executions and findings (verify/)."},
      {"measure.", "Measurement probes and validation results (measure/)."},
      {"recorder.", "Flight-recorder bookkeeping (obs/recorder)."},
      {"render.", "Template rendering outcomes (render/)."},
      {"span.", "Span duration distribution in microseconds (obs/span)."},
  };
  for (const Entry& entry : kFamilies) {
    if (name.substr(0, entry.prefix.size()) == entry.prefix) {
      return std::string(entry.help) + " Source metric '" +
             std::string(name) + "'.";
    }
  }
  return "Source metric '" + std::string(name) + "'.";
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

std::string to_chrome_trace(const Registry& registry) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : registry.trace_events()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json_escape(e.name)
        << "\",\"cat\":\"autonet\",\"ph\":\"X\",\"ts\":" << e.start_us
        << ",\"dur\":" << e.dur_us << ",\"pid\":1,\"tid\":1,\"args\":{"
        << "\"depth\":" << e.depth;
    for (const auto& [key, value] : e.args) {
      out << ",\"" << json_escape(key) << "\":\"" << json_escape(value) << "\"";
    }
    out << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

std::string to_prometheus(const Registry& registry) {
  std::ostringstream out;
  for (const auto& [name, value] : registry.counter_values()) {
    const std::string pname = prometheus_name(name);
    out << "# HELP " << pname << " " << prometheus_help_escape(prometheus_help(name))
        << "\n";
    out << "# TYPE " << pname << " counter\n" << pname << " " << value << "\n";
  }
  for (const auto& [name, value] : registry.gauge_values()) {
    const std::string pname = prometheus_name(name);
    out << "# HELP " << pname << " " << prometheus_help_escape(prometheus_help(name))
        << "\n";
    out << "# TYPE " << pname << " gauge\n" << pname << " " << value << "\n";
  }
  for (const auto& snap : registry.histogram_values()) {
    const std::string pname = prometheus_name(snap.name);
    out << "# HELP " << pname << " "
        << prometheus_help_escape(prometheus_help(snap.name)) << "\n";
    out << "# TYPE " << pname << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (snap.buckets[i] == 0) continue;
      cumulative += snap.buckets[i];
      out << pname << "_bucket{le=\"" << Histogram::bucket_bound(i) << "\"} "
          << cumulative << "\n";
    }
    out << pname << "_bucket{le=\"+Inf\"} " << snap.count << "\n";
    out << pname << "_sum " << snap.sum << "\n";
    out << pname << "_count " << snap.count << "\n";
  }
  return out.str();
}

}  // namespace autonet::obs
