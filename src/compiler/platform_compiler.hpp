// Platform compilers (paper §5.4): "constructs information needed by a
// particular emulation platform, allocates platform specified information,
// such as interface names..., and management IP addresses, and performs
// platform based formatting, such as removing any invalid characters from
// hostnames." Reference implementations are provided for Netkit, Dynagen,
// Junosphere and C-BGP, mirroring the paper.
#pragma once

#include <cstddef>
#include <string>

#include "anm/anm.hpp"
#include "compiler/device_compiler.hpp"
#include "nidb/nidb.hpp"

namespace autonet::compiler {

struct PlatformOptions {
  /// Emulation host devices deploy to unless a node carries a `host`
  /// attribute.
  std::string default_host = "localhost";
  /// Management (TAP) address block.
  std::string mgmt_block = "172.16.0.0/16";
};

class PlatformCompiler {
 public:
  virtual ~PlatformCompiler() = default;

  [[nodiscard]] virtual std::string platform() const = 0;
  [[nodiscard]] virtual std::string default_syntax() const = 0;
  /// Name of the idx-th data-plane interface (0-based).
  [[nodiscard]] virtual std::string data_interface_name(std::size_t idx) const = 0;
  [[nodiscard]] virtual std::string loopback_name() const = 0;
  /// Name of the management (TAP) interface.
  [[nodiscard]] virtual std::string mgmt_interface_name() const { return "mgmt0"; }
  /// Strips characters the platform cannot digest in hostnames.
  [[nodiscard]] virtual std::string sanitize_hostname(std::string name) const;

  /// Runs the full platform compilation: resolves interfaces from the ip
  /// overlay, allocates management addresses, invokes the per-device
  /// syntax compilers, records device-level links, detects cross-host
  /// connections (GRE stitches), and calls platform_data(). Requires the
  /// 'phy' and 'ip' overlays.
  [[nodiscard]] nidb::Nidb compile(const anm::AbstractNetworkModel& anm,
                                   const PlatformOptions& opts = {}) const;

 protected:
  /// Hook for platform-wide artefacts (e.g. Netkit's lab.conf entries).
  virtual void platform_data(const anm::AbstractNetworkModel& anm,
                             nidb::Nidb& nidb) const;
};

/// Netkit: Linux/UML VMs, Quagga routing, eth0 reserved for the TAP
/// management interface, lab.conf + per-device .startup files.
class NetkitCompiler : public PlatformCompiler {
 public:
  [[nodiscard]] std::string platform() const override { return "netkit"; }
  [[nodiscard]] std::string default_syntax() const override { return "quagga"; }
  [[nodiscard]] std::string data_interface_name(std::size_t idx) const override {
    return "eth" + std::to_string(idx + 1);  // eth0 is the TAP interface
  }
  [[nodiscard]] std::string mgmt_interface_name() const override { return "eth0"; }
  [[nodiscard]] std::string loopback_name() const override { return "lo"; }

 protected:
  void platform_data(const anm::AbstractNetworkModel& anm,
                     nidb::Nidb& nidb) const override;
};

/// Dynagen: emulated Cisco 7200s, IOS syntax, slot/port interface names.
class DynagenCompiler : public PlatformCompiler {
 public:
  [[nodiscard]] std::string platform() const override { return "dynagen"; }
  [[nodiscard]] std::string default_syntax() const override { return "ios"; }
  [[nodiscard]] std::string data_interface_name(std::size_t idx) const override {
    return "FastEthernet" + std::to_string(idx / 2) + "/" + std::to_string(idx % 2);
  }
  [[nodiscard]] std::string loopback_name() const override { return "Loopback0"; }

 protected:
  void platform_data(const anm::AbstractNetworkModel& anm,
                     nidb::Nidb& nidb) const override;
};

/// Junosphere: Juniper VJX images, em- interfaces.
class JunosphereCompiler : public PlatformCompiler {
 public:
  [[nodiscard]] std::string platform() const override { return "junosphere"; }
  [[nodiscard]] std::string default_syntax() const override { return "junos"; }
  [[nodiscard]] std::string data_interface_name(std::size_t idx) const override {
    return "em" + std::to_string(idx);
  }
  [[nodiscard]] std::string loopback_name() const override { return "lo0"; }
};

/// C-BGP: a routing solver; interfaces are abstract.
class CbgpPlatformCompiler : public PlatformCompiler {
 public:
  [[nodiscard]] std::string platform() const override { return "cbgp"; }
  [[nodiscard]] std::string default_syntax() const override { return "cbgp"; }
  [[nodiscard]] std::string data_interface_name(std::size_t idx) const override {
    return "if" + std::to_string(idx);
  }
  [[nodiscard]] std::string loopback_name() const override { return "lo"; }

 protected:
  void platform_data(const anm::AbstractNetworkModel& anm,
                     nidb::Nidb& nidb) const override;
};

/// Registry by platform name; throws on unknown platform.
[[nodiscard]] const PlatformCompiler& platform_compiler_for(std::string_view platform);

}  // namespace autonet::compiler
