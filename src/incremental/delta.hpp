// Typed diffs between two attribute graphs: what an incremental run
// reports against its baseline, and what `autonet diff <a> <b>` prints.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace autonet::incremental {

enum class DeltaKind {
  kNodeAdded,
  kNodeRemoved,
  kNodeAttrChanged,
  kLinkAdded,
  kLinkRemoved,
  kLinkAttrChanged,
};

[[nodiscard]] const char* to_string(DeltaKind kind);

struct Delta {
  DeltaKind kind;
  /// Node deltas: the node name. Link deltas: empty.
  std::string node;
  /// Link deltas: endpoint names (canonical order for undirected graphs).
  std::string src;
  std::string dst;
  /// Attr-changed deltas: the key and both rendered values ("" = unset).
  std::string attr;
  std::string old_value;
  std::string new_value;
};

struct DeltaSet {
  std::vector<Delta> deltas;

  [[nodiscard]] bool empty() const { return deltas.empty(); }
  [[nodiscard]] std::size_t size() const { return deltas.size(); }
  /// Human-readable, one line per delta ("~ link a -- b: ospf_cost 1 -> 5").
  [[nodiscard]] std::string to_text() const;
  /// Deterministic JSON array of typed delta objects.
  [[nodiscard]] std::string to_json(bool pretty = false) const;
};

/// Structural + attribute diff from `a` (baseline) to `b` (edited).
/// Nodes match by name; parallel edges between the same endpoints match
/// positionally. Deltas come out in a deterministic order: node changes
/// sorted by name, then link changes sorted by endpoints.
[[nodiscard]] DeltaSet diff_graphs(const graph::Graph& a, const graph::Graph& b);

}  // namespace autonet::incremental
