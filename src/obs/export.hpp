// Exporters over a Registry snapshot. Three formats, three audiences:
//  - Chrome trace-event JSON: load into Perfetto / chrome://tracing to
//    see the pipeline's span tree on a timeline (§3.2 phase methodology,
//    but zoomable).
//  - Prometheus text exposition: counters/gauges/histograms for scrape-
//    style collection and for byte-exact golden comparison in tests.
//  - JSONL: the structured-event log (deploy transfers/boots/retries,
//    bench results), one JSON object per line, greppable and streamable.
#pragma once

#include <string>
#include <string_view>

#include "obs/registry.hpp"

namespace autonet::obs {

/// {"traceEvents":[{"name":...,"ph":"X","ts":...,"dur":...},...]} —
/// complete ("X") events; nesting is reconstructed by the viewer from
/// ts/dur and recorded in args.depth.
[[nodiscard]] std::string to_chrome_trace(const Registry& registry);

/// Prometheus text exposition. Metric names are sanitized
/// ("render.files" -> "autonet_render_files"); histograms emit
/// cumulative buckets (non-empty finite buckets plus "+Inf"), _sum and
/// _count.
[[nodiscard]] std::string to_prometheus(const Registry& registry);

/// Structured-event log: one JSON object per line
/// ({"ts_us":...,"kind":...,<fields...>}).
[[nodiscard]] std::string to_jsonl(const Registry& registry);

/// The same structured events as a single JSON array document (used by
/// the bench harness for BENCH_<name>.json).
[[nodiscard]] std::string events_to_json(const Registry& registry);

/// JSON string escaping (core/json_escape.hpp, returned as a new
/// string), shared by the exporters and the bench harness.
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace autonet::obs
