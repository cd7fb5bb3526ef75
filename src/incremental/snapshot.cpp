#include "incremental/snapshot.hpp"

#include <algorithm>
#include <functional>

#include "core/hash.hpp"
#include "nidb/value.hpp"

namespace autonet::incremental {

std::vector<std::string> DesignSpec::rule_order() const {
  std::vector<std::string> order{"ospf"};
  if (enable_isis) order.emplace_back("isis");
  order.emplace_back("ebgp");
  order.emplace_back("ibgp");
  order.emplace_back("ip");
  if (enable_dns) order.emplace_back("dns");
  if (enable_rpki) order.emplace_back("rpki");
  return order;
}

namespace {

using graph::AttrMap;
using graph::AttrValue;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

/// Canonical attribute serialization: the variant index disambiguates
/// 1 (int) from "1" (string) so type flips change the hash.
void append_value(std::string& out, const AttrValue& v) {
  out += std::to_string(v.storage().index());
  out += ':';
  out += v.to_string();
}

void append_attrs(std::string& out, const AttrMap& attrs) {
  for (const auto& [key, value] : attrs) {
    out += key;
    out += '=';
    append_value(out, value);
    out += ';';
  }
}

void append_attr(std::string& out, const AttrMap& attrs, std::string_view key) {
  auto it = attrs.find(key);
  out += key;
  out += '=';
  if (it != attrs.end()) append_value(out, it->second);
  out += ';';
}

bool is_router(const Graph& g, NodeId n) {
  auto it = g.node_attrs(n).find("device_type");
  const std::string* s = it == g.node_attrs(n).end() ? nullptr : it->second.as_string();
  return s != nullptr && *s == "router";
}

std::int64_t asn_of(const Graph& g, NodeId n) {
  auto it = g.node_attrs(n).find("asn");
  return it == g.node_attrs(n).end() ? 0 : it->second.as_int().value_or(0);
}

/// Node names sorted, each with the selected attribute slice. An empty
/// key list means "all attributes".
std::string serialize_nodes(const Graph& g,
                            const std::function<bool(NodeId)>& keep,
                            const std::vector<std::string>& keys) {
  std::vector<std::string> lines;
  for (NodeId n : g.nodes()) {
    if (keep && !keep(n)) continue;
    std::string line = g.node_name(n);
    line += '{';
    if (keys.empty()) {
      append_attrs(line, g.node_attrs(n));
    } else {
      for (const auto& key : keys) append_attr(line, g.node_attrs(n), key);
    }
    line += '}';
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

/// Edges sorted by serialized form. `with_attrs` false keeps endpoints
/// only (for rules that read adjacency but no edge attribute).
std::string serialize_edges(const Graph& g,
                            const std::function<bool(EdgeId)>& keep,
                            bool with_attrs) {
  std::vector<std::string> lines;
  for (EdgeId e : g.edges()) {
    if (keep && !keep(e)) continue;
    std::string a = g.node_name(g.edge_src(e));
    std::string b = g.node_name(g.edge_dst(e));
    if (!g.directed() && b < a) std::swap(a, b);
    std::string line = a + ">" + b + "{";
    if (with_attrs) append_attrs(line, g.edge_attrs(e));
    line += '}';
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string serialize_graph(const Graph& g) {
  std::string out = serialize_nodes(g, nullptr, {});
  out += "--\n";
  out += serialize_edges(g, nullptr, true);
  out += "==\n";
  append_attrs(out, g.data());
  return out;
}

}  // namespace

// Each projection serializes a conservative superset of what the rule
// reads from the post-load phy overlay (see src/design/*.cpp):
//   ospf/isis  router nodes + intra-AS router edges with every attribute
//              (explicit costs/areas live on input edge attributes)
//   ebgp       router nodes + inter-AS router edges with every attribute
//              (policy attributes like local_pref/med ride along)
//   ibgp       router nodes (rr/rr_cluster included); rr-auto adds the
//              full adjacency (centrality) and the selection options
//   ip         all nodes + adjacency only — allocation is topology- and
//              asn-driven, link attributes are never read, so a weight
//              edit keeps the address plan clean
//   dns        the ip projection (build_dns reads the derived ip
//              overlay) — node attributes are already all included
//   rpki       all nodes + edges with every attribute (relation)
std::map<std::string, std::uint64_t> rule_projections(
    const anm::AbstractNetworkModel& anm, const DesignSpec& spec) {
  const Graph& phy = anm.overlay("phy").unwrap();
  auto routers = [&phy](NodeId n) { return is_router(phy, n); };
  auto intra_as = [&phy](EdgeId e) {
    NodeId u = phy.edge_src(e);
    NodeId v = phy.edge_dst(e);
    return is_router(phy, u) && is_router(phy, v) && asn_of(phy, u) == asn_of(phy, v);
  };
  auto inter_as = [&phy](EdgeId e) {
    NodeId u = phy.edge_src(e);
    NodeId v = phy.edge_dst(e);
    return is_router(phy, u) && is_router(phy, v) && asn_of(phy, u) != asn_of(phy, v);
  };

  const std::string router_nodes = serialize_nodes(phy, routers, {});
  const std::string all_nodes = serialize_nodes(phy, nullptr, {});
  const std::string adjacency = serialize_edges(phy, nullptr, false);

  std::map<std::string, std::uint64_t> out;
  for (const std::string& rule : spec.rule_order()) {
    std::string proj = rule + "\n";
    if (rule == "ospf") {
      proj += router_nodes + serialize_edges(phy, intra_as, true);
      proj += "opts:" + std::to_string(spec.ospf.default_area) + "," +
              std::to_string(spec.ospf.default_cost) + "," + spec.ospf.cost_attr +
              "," + spec.ospf.area_attr;
    } else if (rule == "isis") {
      proj += router_nodes + serialize_edges(phy, intra_as, true);
    } else if (rule == "ebgp") {
      proj += router_nodes + serialize_edges(phy, inter_as, true);
    } else if (rule == "ibgp") {
      proj += "mode:" + spec.ibgp + "\n" + router_nodes;
      if (spec.ibgp == "rr-auto") {
        proj += adjacency;
        proj += "opts:" + std::to_string(spec.rr_select.per_as) + "," +
                spec.rr_select.metric + "," +
                std::to_string(spec.rr_select.min_as_size);
      }
    } else if (rule == "ip" || rule == "dns") {
      proj += all_nodes + adjacency;
      proj += "opts:" + spec.ip.infra_block + "," + spec.ip.loopback_block + "," +
              std::to_string(spec.ip.ipv6) + "," + spec.ip.ipv6_infra_block + "," +
              spec.ip.ipv6_loopback_block;
    } else if (rule == "rpki") {
      proj += all_nodes + serialize_edges(phy, nullptr, true);
    }
    out[rule] = fnv1a(proj);
  }
  return out;
}

DeviceSignatures device_signatures(const anm::AbstractNetworkModel& anm,
                                   const std::string& platform) {
  DeviceSignatures out;
  const std::vector<std::string> overlays = anm.overlay_names();
  const Graph& phy = anm.overlay("phy").unwrap();

  // Whole-network digest: every overlay's graph-level data() (allocated
  // IP blocks, ibgp mode, service zones), the service overlays in full
  // (a dns/rpki change repoints resolvers on every device), and the
  // platform (it selects the device compilers).
  std::string global = "platform:" + platform + "\n";
  for (const std::string& name : overlays) {
    const Graph& g = anm.overlay(name).unwrap();
    global += name + ":{";
    append_attrs(global, g.data());
    global += "}\n";
    if (name == "dns" || name == "rpki") {
      global += serialize_graph(g);
    }
  }
  out.global_digest = fnv1a(global);

  const bool has_ip = anm.has_overlay("ip");
  for (NodeId d : phy.nodes()) {
    const std::string& device = phy.node_name(d);
    std::string sig = device + "\n";
    for (const std::string& name : overlays) {
      const Graph& g = anm.overlay(name).unwrap();
      NodeId n = g.find_node(device);
      if (n == graph::kInvalidNode) continue;
      sig += "[" + name + "]{";
      append_attrs(sig, g.node_attrs(n));
      sig += "}\n";
      std::vector<std::string> lines;
      for (EdgeId e : g.incident_edges(n)) {
        NodeId peer = g.edge_other(e, n);
        std::string line;
        line += g.edge_src(e) == n ? ">" : "<";
        line += g.node_name(peer);
        line += '{';
        append_attrs(line, g.edge_attrs(e));
        line += "}peer{";
        append_attrs(line, g.node_attrs(peer));
        line += '}';
        // Two hops through a collision domain: the subnet and every
        // member's interface address feed this device's interface and
        // its neighbors' addresses into the compiled record.
        bool peer_is_cd = false;
        if (auto it = g.node_attrs(peer).find("collision_domain");
            it != g.node_attrs(peer).end()) {
          peer_is_cd = it->second.truthy();
        }
        if (name == "ip" && peer_is_cd) {
          std::vector<std::string> members;
          for (EdgeId me : g.incident_edges(peer)) {
            NodeId member = g.edge_other(me, peer);
            std::string m = g.node_name(member) + "{";
            append_attrs(m, g.edge_attrs(me));
            m += "}{";
            append_attrs(m, g.node_attrs(member));
            m += '}';
            members.push_back(std::move(m));
          }
          std::sort(members.begin(), members.end());
          line += "cd[";
          for (const auto& m : members) line += m;
          line += ']';
        }
        // BGP sessions address the peer's loopback: pull the peer's ip
        // overlay attributes into the signature.
        if ((name == "ebgp" || name == "ibgp") && has_ip) {
          const Graph& ip = anm.overlay("ip").unwrap();
          NodeId pn = ip.find_node(g.node_name(peer));
          if (pn != graph::kInvalidNode) {
            line += "ip{";
            append_attrs(line, ip.node_attrs(pn));
            line += '}';
          }
        }
        lines.push_back(std::move(line));
      }
      std::sort(lines.begin(), lines.end());
      for (const auto& line : lines) {
        sig += line;
        sig += '\n';
      }
    }
    out.sigs[device] = fnv1a(sig);
  }
  return out;
}

std::map<std::string, std::uint64_t> template_base_hashes(
    const render::TemplateStore& store) {
  std::map<std::string, std::uint64_t> out;
  for (const std::string& base : store.bases()) {
    std::string acc = base + "\n";
    for (const auto& entry : store.entries(base)) {
      acc += entry.path;
      acc += entry.is_template ? "|T|" : "|S|";
      acc += entry.static_content;
      acc += '\n';
    }
    out[base] = fnv1a(acc);
  }
  return out;
}

// --- snapshot.json ---------------------------------------------------------
// Hashes are persisted as decimal strings: nidb::Value integers are
// signed 64-bit and FNV values use the full unsigned range.

namespace {

nidb::Value hash_map_to_value(const std::map<std::string, std::uint64_t>& m) {
  nidb::Object out;
  for (const auto& [key, value] : m) out[key] = std::to_string(value);
  return nidb::Value(std::move(out));
}

std::map<std::string, std::uint64_t> hash_map_from_value(const nidb::Value* v) {
  std::map<std::string, std::uint64_t> out;
  if (v == nullptr || !v->is_object()) return out;
  for (const auto& [key, value] : *v->as_object()) {
    if (const auto* s = value.as_string()) out[key] = std::stoull(*s);
  }
  return out;
}

}  // namespace

std::string Snapshot::to_json() const {
  nidb::Object out;
  out["version"] = std::int64_t{1};
  out["lint_sig"] = lint_sig;
  out["data_hash"] = std::to_string(data_hash);
  out["global_digest"] = std::to_string(global_digest);
  out["rule_hashes"] = hash_map_to_value(rule_hashes);
  out["device_sigs"] = hash_map_to_value(device_sigs);
  out["template_hashes"] = hash_map_to_value(template_hashes);
  return nidb::Value(std::move(out)).to_json(true);
}

std::optional<Snapshot> Snapshot::from_json(const std::string& text) {
  nidb::Value doc;
  try {
    doc = nidb::parse_json(text);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (!doc.is_object()) return std::nullopt;
  Snapshot snap;
  try {
    if (const auto* s = doc.find("lint_sig"); s != nullptr && s->as_string()) {
      snap.lint_sig = *s->as_string();
    }
    if (const auto* s = doc.find("data_hash"); s != nullptr && s->as_string()) {
      snap.data_hash = std::stoull(*s->as_string());
    }
    if (const auto* s = doc.find("global_digest"); s != nullptr && s->as_string()) {
      snap.global_digest = std::stoull(*s->as_string());
    }
    snap.rule_hashes = hash_map_from_value(doc.find("rule_hashes"));
    snap.device_sigs = hash_map_from_value(doc.find("device_sigs"));
    snap.template_hashes = hash_map_from_value(doc.find("template_hashes"));
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return snap;
}

}  // namespace autonet::incremental
