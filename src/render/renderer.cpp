#include "render/renderer.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace autonet::render {

namespace fs = std::filesystem;

void TemplateStore::add(std::string_view base, std::string_view path,
                        std::string_view text) {
  Entry e;
  e.path = std::string(path);
  e.is_template = true;
  e.tmpl = templates::Template::parse(text, std::string(base) + "/" + e.path);
  sets_[std::string(base)].push_back(std::move(e));
}

void TemplateStore::add_static(std::string_view base, std::string_view path,
                               std::string text) {
  Entry e;
  e.path = std::string(path);
  e.is_template = false;
  e.static_content = std::move(text);
  sets_[std::string(base)].push_back(std::move(e));
}

void TemplateStore::add_directory(std::string_view base, const std::string& dir) {
  if (!fs::exists(dir)) throw std::runtime_error("template directory missing: " + dir);
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string rel = fs::relative(entry.path(), dir).generic_string();
    if (rel.ends_with(".tmpl")) {
      add(base, rel.substr(0, rel.size() - 5), ss.str());
    } else {
      add_static(base, rel, ss.str());
    }
  }
}

bool TemplateStore::has_base(std::string_view base) const {
  return sets_.find(base) != sets_.end();
}

const std::vector<TemplateStore::Entry>& TemplateStore::entries(
    std::string_view base) const {
  static const std::vector<Entry> kEmpty;
  auto it = sets_.find(base);
  return it == sets_.end() ? kEmpty : it->second;
}

std::vector<std::string> TemplateStore::bases() const {
  std::vector<std::string> names;
  names.reserve(sets_.size());
  for (const auto& [base, entries] : sets_) names.push_back(base);
  return names;
}

const TemplateStore& TemplateStore::builtins() {
  static const TemplateStore store = [] {
    TemplateStore s;
    detail::register_builtin_templates(s);
    return s;
  }();
  return store;
}

ConfigTree render_configs(const nidb::Nidb& nidb, const TemplateStore& store,
                          core::RunControl* control) {
  ConfigTree tree;
  obs::Registry& obs = obs::Registry::current();
  obs::Counter& templates_rendered = obs.counter("render.templates_rendered");
  obs::Counter& static_copied = obs.counter("render.static_files_copied");
  obs::Counter& devices_rendered = obs.counter("render.devices");

  // Per-device rendering.
  for (const auto* rec : nidb.devices()) {
    core::checkpoint(control, "render.device." + rec->name);
    const std::string base = rec->template_base();
    const std::string dst = rec->dst_folder();
    if (base.empty()) continue;
    if (!store.has_base(base)) {
      throw std::runtime_error("no template set registered for '" + base +
                               "' (device " + rec->name + ")");
    }

    obs::Span span(obs, "render.device");
    span.arg("device", rec->name);
    devices_rendered.inc();
    templates::Context ctx;
    ctx.set("node", rec->data);
    ctx.set("data", nidb.data());
    std::size_t files = 0;
    for (const auto& entry : store.entries(base)) {
      const std::string path = dst.empty() ? entry.path : dst + "/" + entry.path;
      std::string out =
          entry.is_template ? entry.tmpl.render(ctx) : entry.static_content;
      (entry.is_template ? templates_rendered : static_copied).inc();
      tree.put(path, std::move(out));
      ++files;
    }
    obs::record("render", "device",
                {{"device", rec->name},
                 {"base", base},
                 {"files", std::to_string(files)}});
  }

  // Platform-level rendering (lab.conf, .net, network-wide scripts).
  const nidb::Value* platform = nidb.data().find("platform");
  const std::string* platform_name = platform ? platform->as_string() : nullptr;
  if (platform_name != nullptr) {
    const std::string base = "platform/" + *platform_name;
    if (store.has_base(base)) {
      obs::Span span(obs, "render.platform");
      span.arg("platform", *platform_name);
      templates::Context ctx;
      ctx.set("data", nidb.data());
      nidb::Array devices;
      for (const auto* rec : nidb.devices()) devices.push_back(rec->data);
      ctx.set("devices", nidb::Value(std::move(devices)));
      for (const auto& entry : store.entries(base)) {
        std::string out =
            entry.is_template ? entry.tmpl.render(ctx) : entry.static_content;
        (entry.is_template ? templates_rendered : static_copied).inc();
        tree.put(entry.path, std::move(out));
      }
    }
  }
  obs.counter("render.files").inc(tree.file_count());
  obs.counter("render.bytes").inc(tree.total_bytes());
  return tree;
}

RenderStats stats_of(const nidb::Nidb& nidb, const ConfigTree& tree) {
  RenderStats s;
  s.devices = nidb.device_count();
  s.files = tree.file_count();
  s.items = tree.item_count();
  s.bytes = tree.total_bytes();
  return s;
}

}  // namespace autonet::render
