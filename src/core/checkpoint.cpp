#include "core/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/hash.hpp"
#include "core/json_escape.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"

namespace autonet::core {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw CheckpointError(what + " " + path + ": " + std::strerror(errno));
}

void write_all(int fd, std::string_view content, const std::string& path) {
  const char* p = content.data();
  std::size_t left = content.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno("write", path);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // directory fsync is best-effort on odd filesystems
  ::fsync(fd);
  ::close(fd);
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::uint64_t parse_hash_hex(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 16);
}

// Doubles are encoded as %.17g strings so the manifest and attribute
// artifacts round-trip bit-exactly (JSON double formatting would not).
std::string double_repr(double d) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

double parse_double_repr(const std::string& s) { return std::strtod(s.c_str(), nullptr); }

}  // namespace

void write_file_atomic(const std::string& path, std::string_view content) {
  const fs::path target(path);
  // The rename would replace a device, FIFO or directory with a file.
  std::error_code status_error;
  const fs::file_status status = fs::status(target, status_error);
  if (fs::exists(status) && !fs::is_regular_file(status)) {
    throw CheckpointError("refusing to replace " + path + ": not a regular file");
  }
  if (target.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(target.parent_path(), ec);
  }
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("open", tmp);
  write_all(fd, content, tmp);
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_errno("fsync", tmp);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) throw_errno("rename", path);
  fsync_dir(target.has_parent_path() ? target.parent_path().string() : ".");
}

void append_line_durable(const std::string& path, std::string_view line) {
  const fs::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(target.parent_path(), ec);
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) throw_errno("open", path);
  std::string payload(line);
  payload.push_back('\n');
  write_all(fd, payload, path);
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_errno("fsync", path);
  }
  ::close(fd);
}

// --- Journal ---------------------------------------------------------------

void Journal::claim(std::string_view identity) {
  if (path_.empty()) return;
  std::ifstream in(path_, std::ios::binary);
  std::string first;
  if (in && std::getline(in, first) && first == identity) return;
  write_file_atomic(path_, std::string(identity) + "\n");
}

std::vector<nidb::Value> Journal::records() const {
  std::vector<nidb::Value> out;
  std::ifstream in(path_, std::ios::binary);
  std::string line;
  for (bool first = true; std::getline(in, line); first = false) {
    try {
      nidb::Value record = nidb::parse_json(line);
      if (first && record.find("campaign") != nullptr) continue;
      out.push_back(std::move(record));
    } catch (const std::runtime_error&) {
      // Torn by a kill mid-append, or corrupt: the run it recorded is
      // redone.
    }
  }
  return out;
}

void Journal::append(std::string_view line) {
  if (path_.empty()) return;
  std::lock_guard lock(mutex_);
  append_line_durable(path_, line);
}

// --- CheckpointStore -------------------------------------------------------

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  load_manifest();
}

void CheckpointStore::load_manifest() {
  phases_.clear();
  order_.clear();
  meta_.clear();
  std::ifstream in(dir_ + "/manifest.json", std::ios::binary);
  if (!in) return;
  std::ostringstream buf;
  buf << in.rdbuf();
  nidb::Value manifest;
  try {
    manifest = nidb::parse_json(buf.str());
  } catch (const std::exception&) {
    return;  // torn or foreign manifest: treat as empty
  }
  const auto* obj = manifest.as_object();
  if (obj == nullptr) return;
  if (const auto* meta = manifest.find("meta"); meta != nullptr && meta->is_object()) {
    for (const auto& [k, v] : *meta->as_object()) {
      if (const auto* s = v.as_string()) meta_[k] = *s;
    }
  }
  const auto* order = manifest.find("order");
  const auto* phases = manifest.find("phases");
  if (order == nullptr || !order->is_array() || phases == nullptr ||
      !phases->is_object()) {
    return;
  }
  for (const auto& name_v : *order->as_array()) {
    const auto* name = name_v.as_string();
    if (name == nullptr) continue;
    const auto* rec = phases->find(*name);
    if (rec == nullptr || !rec->is_object()) continue;
    PhaseRecord record;
    if (const auto* art = rec->find("artifact"); art != nullptr && art->as_string()) {
      record.artifact = *art->as_string();
    }
    if (const auto* hash = rec->find("hash"); hash != nullptr && hash->as_string()) {
      record.hash = parse_hash_hex(*hash->as_string());
    }
    if (const auto* ms = rec->find("ms"); ms != nullptr && ms->as_string()) {
      record.ms = parse_double_repr(*ms->as_string());
    }
    if (const auto* ev = rec->find("events"); ev != nullptr && ev->as_string()) {
      record.events_file = *ev->as_string();
    }
    if (const auto* eh = rec->find("events_hash");
        eh != nullptr && eh->as_string()) {
      record.events_hash = parse_hash_hex(*eh->as_string());
    }
    order_.push_back(*name);
    phases_[*name] = std::move(record);
  }
}

void CheckpointStore::write_manifest() {
  nidb::Object phases;
  nidb::Array order;
  for (const auto& name : order_) {
    const PhaseRecord& rec = phases_.at(name);
    nidb::Object entry;
    entry["artifact"] = rec.artifact;
    entry["hash"] = hash_hex(rec.hash);
    entry["ms"] = double_repr(rec.ms);
    if (!rec.events_file.empty()) {
      entry["events"] = rec.events_file;
      entry["events_hash"] = hash_hex(rec.events_hash);
    }
    phases[name] = nidb::Value(std::move(entry));
    order.emplace_back(name);
  }
  nidb::Object meta;
  for (const auto& [k, v] : meta_) meta[k] = v;
  nidb::Object manifest;
  manifest["version"] = 1;
  manifest["meta"] = nidb::Value(std::move(meta));
  manifest["order"] = nidb::Value(std::move(order));
  manifest["phases"] = nidb::Value(std::move(phases));
  write_file_atomic(dir_ + "/manifest.json",
                    nidb::Value(std::move(manifest)).to_json(true) + "\n");
}

std::optional<std::string> CheckpointStore::read_verified(const std::string& file,
                                                          std::uint64_t hash) const {
  std::ifstream in(dir_ + "/" + file, std::ios::binary | std::ios::ate);
  const std::streamoff size = in ? static_cast<std::streamoff>(in.tellg()) : -1;
  if (size < 0) return std::nullopt;
  std::string content(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(content.data(), size) || fnv1a(content) != hash) return std::nullopt;
  return content;
}

std::optional<std::string> CheckpointStore::read_artifact(std::string_view phase) const {
  const auto it = phases_.find(std::string(phase));
  if (it == phases_.end()) return std::nullopt;
  return read_verified(it->second.artifact, it->second.hash);
}

bool CheckpointStore::has_phase(std::string_view phase) const {
  return read_artifact(phase).has_value();
}

std::string CheckpointStore::artifact(std::string_view phase) const {
  const auto it = phases_.find(std::string(phase));
  if (it == phases_.end()) {
    throw CheckpointError("no checkpoint for phase '" + std::string(phase) + "'");
  }
  std::optional<std::string> content = read_verified(it->second.artifact, it->second.hash);
  if (!content) {
    throw CheckpointError("missing or corrupt checkpoint artifact " + it->second.artifact);
  }
  return std::move(*content);
}

double CheckpointStore::phase_ms(std::string_view phase) const {
  const auto it = phases_.find(std::string(phase));
  return it == phases_.end() ? 0 : it->second.ms;
}

std::vector<std::string> CheckpointStore::phases() const { return order_; }

void CheckpointStore::record_phase(const std::string& phase,
                                   const std::string& artifact_file,
                                   const std::string& content, double ms,
                                   const std::optional<std::string>& events) {
  write_file_atomic(dir_ + "/" + artifact_file, content);
  PhaseRecord rec;
  rec.artifact = artifact_file;
  rec.hash = fnv1a(content);
  rec.ms = ms;
  if (events) {
    rec.events_file = phase + ".events.jsonl";
    rec.events_hash = fnv1a(*events);
    write_file_atomic(dir_ + "/" + rec.events_file, *events);
  }
  if (phases_.find(phase) == phases_.end()) order_.push_back(phase);
  phases_[phase] = std::move(rec);
  write_manifest();
  obs::Registry::current().counter("ckpt.write").inc();
  obs::record("ckpt", "write", {{"phase", phase}});
}

std::optional<std::string> CheckpointStore::read_events(std::string_view phase) const {
  const auto it = phases_.find(std::string(phase));
  if (it == phases_.end() || it->second.events_file.empty()) return std::nullopt;
  return read_verified(it->second.events_file, it->second.events_hash);
}

void CheckpointStore::set_meta(const std::map<std::string, std::string>& entries) {
  bool changed = false;
  for (const auto& [key, value] : entries) {
    const auto it = meta_.find(key);
    if (it != meta_.end() && it->second == value) continue;
    meta_[key] = value;
    changed = true;
  }
  if (changed) write_manifest();
}

std::string CheckpointStore::meta(const std::string& key) const {
  const auto it = meta_.find(key);
  return it == meta_.end() ? "" : it->second;
}

void CheckpointStore::invalidate(const std::vector<std::string>& phases) {
  bool changed = false;
  for (const std::string& name : phases) {
    const auto it = phases_.find(name);
    if (it == phases_.end()) continue;
    std::error_code ec;
    fs::remove(fs::path(dir_) / it->second.artifact, ec);
    if (!it->second.events_file.empty()) {
      fs::remove(fs::path(dir_) / it->second.events_file, ec);
    }
    phases_.erase(it);
    order_.erase(std::remove(order_.begin(), order_.end(), name), order_.end());
    changed = true;
  }
  if (!changed) return;
  write_manifest();
  std::error_code ec;
  fs::remove(fs::path(dir_) / kRunReportFile, ec);
}

// --- Attribute / graph serialization ---------------------------------------

namespace {

// The writers below emit exactly what nidb::Value::to_json(false) prints
// for the type-tagged value tree of the same graph (sorted keys, ", "
// and ": " separators): input hashes and records keep the bytes they
// had when they were printed from such trees, and
// tests/checkpoint_reference.hpp keeps the tree as the reference.

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  append_json_escaped(out, s);
  out += '"';
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

// Appends `each(item)` for every item, ", "-separated, between `open`
// and `close`.
template <typename Range, typename F>
void append_list(std::string& out, const char* open, const Range& items, F&& each,
                 const char* close) {
  out += open;
  const char* sep = "";
  for (const auto& item : items) {
    out += sep;
    sep = ", ";
    each(item);
  }
  out += close;
}

void append_attr_json(std::string& out, const graph::AttrValue& attr) {
  const auto quoted = [&out](const std::string& s) { append_json_string(out, s); };
  const auto number = [&out](std::int64_t i) { append_int(out, i); };
  if (!attr.is_set()) {
    out += "{\"t\": \"unset\"}";
  } else if (attr.is_bool()) {
    out += *attr.as_bool() ? "{\"t\": \"bool\", \"v\": true}"
                           : "{\"t\": \"bool\", \"v\": false}";
  } else if (attr.is_int()) {
    out += "{\"t\": \"int\", \"v\": ";
    number(*attr.as_int());
    out += '}';
  } else if (attr.is_double()) {
    out += "{\"t\": \"double\", \"v\": \"" + double_repr(*attr.as_double()) + "\"}";
  } else if (attr.is_string()) {
    out += "{\"t\": \"string\", \"v\": ";
    quoted(*attr.as_string());
    out += '}';
  } else if (attr.is_int_list()) {
    append_list(out, "{\"t\": \"ints\", \"v\": [", *attr.as_int_list(), number, "]}");
  } else {
    append_list(out, "{\"t\": \"strings\", \"v\": [", *attr.as_string_list(), quoted,
                "]}");
  }
}

void append_attrs_json(std::string& out, const graph::AttrMap& attrs) {
  append_list(out, "{", attrs, [&out](const auto& entry) {
    append_json_string(out, entry.first);
    out += ": ";
    append_attr_json(out, entry.second);
  }, "}");
}

void append_graph_json(std::string& out, const graph::Graph& g) {
  out += "{\"data\": ";
  append_attrs_json(out, g.data());
  out += g.directed() ? ", \"directed\": true" : ", \"directed\": false";
  append_list(out, ", \"edges\": [", g.edges(), [&out, &g](graph::EdgeId id) {
    out += "{\"attrs\": ";
    append_attrs_json(out, g.edge_attrs(id));
    out += ", \"u\": ";
    append_json_string(out, g.node_name(g.edge_src(id)));
    out += ", \"v\": ";
    append_json_string(out, g.node_name(g.edge_dst(id)));
    out += '}';
  }, "]");
  out += ", \"name\": ";
  append_json_string(out, g.name());
  append_list(out, ", \"nodes\": [", g.nodes(), [&out, &g](graph::NodeId id) {
    out += "{\"attrs\": ";
    append_attrs_json(out, g.node_attrs(id));
    out += ", \"name\": ";
    append_json_string(out, g.node_name(id));
    out += '}';
  }, "]}");
}

graph::AttrValue attr_from_value(const nidb::Value& v) {
  const auto* type = v.find("t");
  if (type == nullptr || type->as_string() == nullptr) {
    throw CheckpointError("malformed attribute record in checkpoint");
  }
  const std::string& t = *type->as_string();
  const auto* payload = v.find("v");
  if (t == "unset") return {};
  if (payload == nullptr) throw CheckpointError("attribute record missing value");
  if (t == "bool") return graph::AttrValue(payload->as_bool().value_or(false));
  if (t == "int") return graph::AttrValue(payload->as_int().value_or(0));
  if (t == "double") {
    const auto* s = payload->as_string();
    return graph::AttrValue(s != nullptr ? parse_double_repr(*s)
                                         : payload->as_double().value_or(0));
  }
  if (t == "string") {
    const auto* s = payload->as_string();
    return graph::AttrValue(s != nullptr ? *s : std::string());
  }
  if (t == "ints") {
    std::vector<std::int64_t> items;
    if (const auto* arr = payload->as_array()) {
      for (const auto& e : *arr) items.push_back(e.as_int().value_or(0));
    }
    return graph::AttrValue(std::move(items));
  }
  if (t == "strings") {
    std::vector<std::string> items;
    if (const auto* arr = payload->as_array()) {
      for (const auto& e : *arr) items.push_back(e.as_string() ? *e.as_string() : "");
    }
    return graph::AttrValue(std::move(items));
  }
  throw CheckpointError("unknown attribute type tag '" + t + "'");
}

void attrs_from_value(const nidb::Value& v, graph::AttrMap& out) {
  if (const auto* obj = v.as_object()) {
    for (const auto& [key, value] : *obj) out[key] = attr_from_value(value);
  }
}

// Fills an existing (empty) graph from its serialized form; shared by the
// standalone and in-place (overlay) restore paths.
void graph_fill_from_value(const nidb::Value& v, graph::Graph& g) {
  if (const auto* data = v.find("data")) attrs_from_value(*data, g.data());
  if (const auto* nodes = v.find("nodes"); nodes != nullptr && nodes->is_array()) {
    for (const auto& node : *nodes->as_array()) {
      const auto* name = node.find("name");
      if (name == nullptr || name->as_string() == nullptr) {
        throw CheckpointError("node record missing name in checkpoint");
      }
      const graph::NodeId id = g.add_node(*name->as_string());
      if (const auto* attrs = node.find("attrs")) {
        attrs_from_value(*attrs, g.node_attrs(id));
      }
    }
  }
  if (const auto* edges = v.find("edges"); edges != nullptr && edges->is_array()) {
    for (const auto& edge : *edges->as_array()) {
      const auto* u = edge.find("u");
      const auto* w = edge.find("v");
      if (u == nullptr || u->as_string() == nullptr || w == nullptr ||
          w->as_string() == nullptr) {
        throw CheckpointError("edge record missing endpoint in checkpoint");
      }
      const graph::EdgeId id = g.add_edge(*u->as_string(), *w->as_string());
      if (const auto* attrs = edge.find("attrs")) {
        attrs_from_value(*attrs, g.edge_attrs(id));
      }
    }
  }
}

}  // namespace

std::string graph_to_json(const graph::Graph& g) {
  std::string out;
  append_graph_json(out, g);
  return out;
}

graph::Graph graph_from_value(const nidb::Value& v) {
  const auto* directed = v.find("directed");
  const auto* name = v.find("name");
  graph::Graph g(directed != nullptr && directed->as_bool().value_or(false),
                 name != nullptr && name->as_string() ? *name->as_string() : "");
  graph_fill_from_value(v, g);
  return g;
}

std::string anm_to_json(const anm::AbstractNetworkModel& anm) {
  std::string out;
  append_list(
      out, "{\"overlays\": [", anm.overlay_names(),
      [&out, &anm](const std::string& name) { append_graph_json(out, anm.overlay(name).unwrap()); },
      "]}");
  return out;
}

obs::RecorderEvent event_from_value(const nidb::Value& doc) {
  obs::RecorderEvent event;
  if (const auto* ts = doc.find("ts_us")) {
    event.ts_us = static_cast<std::uint64_t>(ts->as_int().value_or(0));
  }
  if (const auto* s = doc.find("phase"); s != nullptr && s->as_string()) {
    event.phase = *s->as_string();
  }
  if (const auto* s = doc.find("category"); s != nullptr && s->as_string()) {
    event.category = *s->as_string();
  }
  if (const auto* s = doc.find("severity"); s != nullptr && s->as_string()) {
    event.severity = obs::severity_from_label(*s->as_string());
  }
  if (const auto* s = doc.find("name"); s != nullptr && s->as_string()) {
    event.name = *s->as_string();
  }
  if (const auto* fields = doc.find("fields");
      fields != nullptr && fields->is_object()) {
    // nidb objects iterate in sorted key order — the same order
    // obs::event_to_json emits — so parse→serialize round trips are
    // byte-stable.
    for (const auto& [key, value] : *fields->as_object()) {
      event.fields.emplace_back(key,
                                value.as_string() ? *value.as_string() : "");
    }
  }
  return event;
}

std::vector<obs::RecorderEvent> events_from_jsonl(const std::string& text) {
  std::vector<obs::RecorderEvent> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    nidb::Value doc;
    try {
      doc = nidb::parse_json(line);
    } catch (const std::exception& e) {
      throw CheckpointError(std::string("malformed event line: ") + e.what());
    }
    out.push_back(event_from_value(doc));
  }
  return out;
}

void anm_from_value(const nidb::Value& v, anm::AbstractNetworkModel& anm) {
  const auto* overlays = v.find("overlays");
  if (overlays == nullptr || !overlays->is_array()) {
    throw CheckpointError("ANM checkpoint missing overlays array");
  }
  for (const auto& overlay : *overlays->as_array()) {
    const auto* name = overlay.find("name");
    if (name == nullptr || name->as_string() == nullptr) {
      throw CheckpointError("overlay record missing name in checkpoint");
    }
    const auto* directed = overlay.find("directed");
    // The ANM constructor pre-creates 'input' and 'phy'; restoring into a
    // fresh model replaces those empty graphs so the creation order (and
    // directedness) comes from the checkpoint.
    if (anm.has_overlay(*name->as_string())) {
      anm.remove_overlay(*name->as_string());
    }
    anm::OverlayGraph og = anm.add_overlay(
        *name->as_string(), directed != nullptr && directed->as_bool().value_or(false));
    graph_fill_from_value(overlay, og.unwrap());
  }
}

}  // namespace autonet::core
