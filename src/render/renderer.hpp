// The renderer (paper Fig. 3): pushes each device's Resource-Database
// record through its template set ("render.base") into the configuration
// tree, then renders the platform-level artefacts (Netkit lab.conf,
// Dynagen .net file, the network-wide C-BGP script).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/cancel.hpp"
#include "nidb/nidb.hpp"
#include "render/config_tree.hpp"
#include "templates/template.hpp"

namespace autonet::render {

/// A named set of template files plus verbatim static files (paper §5.5:
/// "the input folder is a user-specified directory containing both static
/// files and template files, which is copied to the output folder").
class TemplateStore {
 public:
  /// Registers a template at `base` (e.g. "templates/quagga") rendering
  /// to the relative output path `path`. Throws TemplateError on parse
  /// errors.
  void add(std::string_view base, std::string_view path, std::string_view text);
  /// Registers a static file copied verbatim.
  void add_static(std::string_view base, std::string_view path, std::string text);
  /// Loads a directory: "*.tmpl" files become templates (suffix
  /// stripped), everything else is static.
  void add_directory(std::string_view base, const std::string& dir);

  [[nodiscard]] bool has_base(std::string_view base) const;

  /// The reference template sets for quagga / ios / junos / cbgp / linux
  /// plus the platform artefacts ("platform/netkit", ...).
  static const TemplateStore& builtins();

  struct Entry {
    std::string path;
    bool is_template = false;
    templates::Template tmpl;    // valid when is_template
    std::string static_content;  // valid otherwise
  };
  [[nodiscard]] const std::vector<Entry>& entries(std::string_view base) const;
  /// All registered base names, in order (verify's template lint walks
  /// every set).
  [[nodiscard]] std::vector<std::string> bases() const;

 private:
  std::map<std::string, std::vector<Entry>, std::less<>> sets_;
};

struct RenderStats {
  std::size_t devices = 0;
  std::size_t files = 0;
  std::size_t items = 0;  // files + directories, the §3.2 metric
  std::size_t bytes = 0;
};

/// Renders the whole NIDB. Device records render under their
/// `render.base_dst_folder`; platform templates render at the root.
/// The context exposes `node` (device record), `data` (network data),
/// and for platform templates `devices` (array of all records). An
/// optional RunControl is polled per device, so cancellation interrupts
/// a long render within one device's worth of work.
[[nodiscard]] ConfigTree render_configs(const nidb::Nidb& nidb,
                                        const TemplateStore& store =
                                            TemplateStore::builtins(),
                                        core::RunControl* control = nullptr);

[[nodiscard]] RenderStats stats_of(const nidb::Nidb& nidb, const ConfigTree& tree);

namespace detail {
/// Registers the built-in template texts (defined in
/// builtin_templates.cpp) into a store.
void register_builtin_templates(TemplateStore& store);
}  // namespace detail

}  // namespace autonet::render
