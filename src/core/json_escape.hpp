// JSON string escaping: the one escaper behind the NIDB writer (and so
// every checkpoint) and obs::json_escape (the exporters, run reports,
// flight recorder and fuzz journal). Header-only (like core/hash.hpp)
// so the nidb and obs libraries share it without linking the core
// library; it appends to the caller's buffer, because the NIDB writer
// serializes whole checkpoints through it.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace autonet {

/// Appends `s` to `out` as the body of a JSON string (no surrounding
/// quotes): `"` `\` newline, CR and tab take their short escapes, other
/// control bytes become \u00XX, everything else is copied as is.
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace autonet
