// The virtual router: configuration plus control-plane state (RIB/FIB,
// BGP Adj-RIB-In and selections). The emulation substitutes for running
// real Quagga/IOS images: it implements the same decision processes —
// including the vendor divergence in the BGP IGP-metric tie-break that
// the paper's §7.2 experiment hinges on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "emulation/config_parse.hpp"
#include "emulation/forwarding.hpp"

namespace autonet::emulation {

/// A BGP route as held in Adj-RIB-In (attributes after ingress policy).
struct BgpRoute {
  addressing::Ipv4Prefix prefix;
  std::vector<std::int64_t> as_path;
  addressing::Ipv4Addr next_hop;
  std::int64_t local_pref = 100;
  std::int64_t med = 0;
  /// Cisco-style weight; locally originated routes get 32768.
  std::int64_t weight = 0;
  bool ebgp_learned = false;   // session type at *this* router
  bool local_originated = false;
  addressing::Ipv4Addr originator_id;  // original router-id (RR-safe)
  std::vector<addressing::Ipv4Addr> cluster_list;
  addressing::Ipv4Addr from_peer;      // session address it arrived over

  /// Stable identity for oscillation detection.
  [[nodiscard]] std::string fingerprint() const;

  friend bool operator==(const BgpRoute&, const BgpRoute&) = default;
};

class VirtualRouter {
 public:
  explicit VirtualRouter(RouterConfig config) : config_(std::move(config)) {}

  [[nodiscard]] const RouterConfig& config() const { return config_; }
  /// Mutable config access for hot-apply (incremental pipeline): scoped
  /// edits — an interface cost change — take effect on the next start().
  [[nodiscard]] RouterConfig& mutable_config() { return config_; }
  [[nodiscard]] const std::string& name() const { return config_.hostname; }
  /// Renames the router (used when mapping C-BGP address-named nodes back
  /// to device names).
  void rename(std::string hostname) { config_.hostname = std::move(hostname); }
  [[nodiscard]] std::int64_t asn() const { return config_.asn; }

  // --- FIB --------------------------------------------------------------
  [[nodiscard]] const std::vector<FibEntry>& fib() const { return fib_; }
  std::vector<FibEntry>& mutable_fib() { return fib_; }
  /// Longest-prefix match over this router's FIB (emulation::lookup).
  [[nodiscard]] const FibEntry* lookup(addressing::Ipv4Addr dst) const {
    return emulation::lookup(fib_, dst);
  }

  // --- OSPF state -------------------------------------------------------
  [[nodiscard]] const std::vector<std::string>& ospf_neighbors() const {
    return ospf_neighbors_;
  }
  std::vector<std::string>& mutable_ospf_neighbors() { return ospf_neighbors_; }

  // --- BGP state ----------------------------------------------------------
  /// Adj-RIB-In keyed by (prefix, from_peer): at most one route per
  /// neighbor per prefix.
  using RibInKey = std::pair<std::string, std::uint32_t>;
  [[nodiscard]] std::map<RibInKey, BgpRoute>& rib_in() { return rib_in_; }
  [[nodiscard]] const std::map<RibInKey, BgpRoute>& rib_in() const { return rib_in_; }

  [[nodiscard]] std::map<std::string, BgpRoute>& bgp_best() { return bgp_best_; }
  [[nodiscard]] const std::map<std::string, BgpRoute>& bgp_best() const {
    return bgp_best_;
  }

 private:
  RouterConfig config_;
  std::vector<FibEntry> fib_;
  std::vector<std::string> ospf_neighbors_;
  std::map<RibInKey, BgpRoute> rib_in_;
  std::map<std::string, BgpRoute> bgp_best_;  // key: prefix string
};

}  // namespace autonet::emulation
