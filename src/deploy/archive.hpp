// Config-bundle archiver. The paper's deployment "archives the generated
// configuration files, transfers them to the emulation host, extracts
// them, and runs the Netkit lstart command" — this is the archive step,
// a simple length-prefixed container with a checksum so transfer
// corruption is detectable.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "render/config_tree.hpp"

namespace autonet::deploy {

class ArchiveError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serialises a configuration tree into a single blob.
[[nodiscard]] std::string pack(const render::ConfigTree& tree);

/// Restores a tree from a blob; throws ArchiveError on corruption.
[[nodiscard]] render::ConfigTree unpack(const std::string& blob);

}  // namespace autonet::deploy
