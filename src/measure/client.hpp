// The measurement client (paper §5.7): "a single measurement client on
// the emulation server can connect to multiple virtual machines on the
// same physical host, speeding up data collection"; results are parsed
// with TextFSM and the known IP allocations map addresses back to the
// hosts they represent — yielding node paths and AS paths ready for
// analysis.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "emulation/network.hpp"
#include "measure/textfsm.hpp"
#include "nidb/nidb.hpp"

namespace autonet::measure {

/// A traceroute parsed, reverse-mapped and annotated.
struct TraceResult {
  std::string source;
  std::string target_ip;
  bool reached = false;
  std::vector<std::string> hop_ips;
  /// Node path including the source, as the paper prints:
  /// [as300r2, as40r1, as1r1, ...].
  std::vector<std::string> node_path;
  /// AS path condensed from the node path.
  std::vector<std::int64_t> as_path;
};

struct CommandResult {
  std::string host;
  std::string raw_output;
  std::vector<Record> records;
  /// Set when the command could not run (unknown/unreachable VM); the
  /// sweep continues over the remaining hosts rather than aborting.
  std::optional<core::Error> error;
};

class MeasurementClient {
 public:
  /// The client runs on the emulation server next to the VMs; the NIDB
  /// supplies the IP-to-name mapping.
  MeasurementClient(const emulation::EmulatedNetwork& network,
                    const nidb::Nidb& nidb)
      : network_(&network), nidb_(&nidb) {}

  /// Runs `command` on every named VM, parsing output with `parser`
  /// (paper: `measure.send(nidb, cmd, hosts)`).
  [[nodiscard]] std::vector<CommandResult> send(
      const std::vector<std::string>& hosts, const std::string& command,
      const TextFsm& parser) const;

  /// Convenience: traceroute from `src` to `dst` (an address, or an
  /// emulated hostname resolved to its loopback), fully annotated.
  [[nodiscard]] TraceResult traceroute(const std::string& src,
                                       const std::string& dst) const;

  /// Traceroutes from every router to `dst_ip`.
  [[nodiscard]] std::vector<TraceResult> traceroute_all(
      const std::string& dst_ip) const;

  /// Maps an address back to its device name ("" when unknown).
  [[nodiscard]] std::string device_for_ip(const std::string& ip) const;
  /// ASN of a device (0 when unknown).
  [[nodiscard]] std::int64_t asn_of(const std::string& device) const;

  /// Full loopback reachability matrix over the emulated routers:
  /// reached[src][dst] (src != dst), computed by the emulation
  /// (EmulatedNetwork::reachability). The summary measurement behind
  /// what-if/resilience studies.
  [[nodiscard]] emulation::ReachabilityMatrix reachability() const {
    return network_->reachability();
  }

 private:
  const emulation::EmulatedNetwork* network_;
  const nidb::Nidb* nidb_;
};

}  // namespace autonet::measure
