// The emulated network (the substrate substituting for Netkit/Dynagen/
// Junosphere): boots virtual routers from rendered configurations, wires
// them by collision-domain subnets, runs OSPF SPF and the BGP decision
// process to convergence (with oscillation detection, §7.2), and forwards
// packets hop by hop for traceroute/ping measurements.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/cancel.hpp"
#include "core/error.hpp"
#include "emulation/router.hpp"
#include "nidb/nidb.hpp"
#include "render/config_tree.hpp"

namespace autonet::emulation {

struct ConvergenceReport {
  bool converged = false;
  bool oscillating = false;
  std::size_t rounds = 0;
  /// Cycle length when oscillating (state revisit distance).
  std::size_t period = 0;
  /// Advertisement messages processed.
  std::size_t updates = 0;
  /// Set when the round budget ran out before convergence: how far the
  /// loop got and which routers were still unsettled (no more silent
  /// capping at max_bgp_rounds).
  std::optional<core::ConvergenceTimeout> timeout;
};

/// Cumulative control-plane work counters, accumulated across start()
/// calls (reconvergence after fail_link/fail_node adds to them). The
/// counters live in this plain struct so the SPF/BGP hot loops pay no
/// telemetry cost; start() publishes the per-run deltas to the current
/// obs registry under the "emulation" scope.
struct EmulationStats {
  std::uint64_t spf_runs = 0;
  std::uint64_t lsa_floods = 0;
  std::uint64_t bgp_sessions = 0;  // sessions established by the last run
  std::uint64_t bgp_updates = 0;
  std::uint64_t bgp_withdrawals = 0;
  std::uint64_t decision_reruns = 0;
  std::uint64_t convergence_rounds = 0;
  std::uint64_t convergence_runs = 0;
  std::uint64_t oscillations = 0;
  std::map<std::string, std::uint64_t> spf_per_router;
  /// The "show metrics" rendering: one "key: value" line per counter,
  /// keys sorted, then the per-router SPF breakdown.
  [[nodiscard]] std::string to_text() const;
};

/// Loopback reachability over the network's routers, in name order.
struct ReachabilityMatrix {
  std::vector<std::string> routers;
  /// reached[i][j]: router i reaches router j's loopback.
  std::vector<std::vector<bool>> reached;
  [[nodiscard]] std::size_t reachable_pairs() const;
  [[nodiscard]] bool fully_connected() const;
};

struct TracerouteHop {
  addressing::Ipv4Addr address;
  std::string router;  // resolved from the emulation's address table
  double rtt_ms = 0;   // synthetic: 0.1ms per hop
};

struct TracerouteResult {
  bool reached = false;
  std::vector<TracerouteHop> hops;
  /// Raw output in the standard Linux traceroute text format (the
  /// measurement module parses this with TextFSM, as the paper does).
  [[nodiscard]] std::string to_text() const;
};

class EmulatedNetwork {
 public:
  /// Boots from an NIDB + rendered configuration tree: each device's
  /// config directory is parsed with the parser for its syntax. When
  /// `only` is given, just those devices boot — the surviving
  /// subnetwork of a degraded deployment (dead host / failed machines).
  static EmulatedNetwork from_nidb(const nidb::Nidb& nidb,
                                   const render::ConfigTree& configs,
                                   const std::set<std::string>* only = nullptr);

  /// Boots purely from a rendered Netkit directory tree (lab.conf +
  /// device folders under `<host>/netkit/`), with no knowledge of the
  /// design-side model — the strictest fidelity check.
  static EmulatedNetwork from_netkit_tree(const render::ConfigTree& configs,
                                          const std::string& host = "localhost");

  /// Boots from a network-wide C-BGP script.
  static EmulatedNetwork from_cbgp_script(std::string_view script);

  /// Direct construction from parsed configs (unit tests / synthetic).
  static EmulatedNetwork from_router_configs(std::vector<RouterConfig> configs);

  /// Runs the control plane: OSPF SPF, then BGP to convergence (or until
  /// the `max_bgp_rounds` budget, reported as a ConvergenceTimeout), then
  /// installs BGP routes in the FIBs. An optional RunControl is polled
  /// every BGP round, so cancellation/deadlines interrupt convergence
  /// within one round.
  ConvergenceReport start(std::size_t max_bgp_rounds = 128,
                          core::RunControl* control = nullptr);

  // --- What-if experimentation (paper §8: "creating tools to emulate
  // workflow, or incidents") -------------------------------------------
  /// Takes the link between two routers down (their shared collision
  /// domain stops carrying traffic and adjacencies). Returns false when
  /// the routers share no link. Call start() again to reconverge.
  bool fail_link(std::string_view router_a, std::string_view router_b);
  /// Restores a previously failed link.
  bool restore_link(std::string_view router_a, std::string_view router_b);
  [[nodiscard]] std::size_t failed_link_count() const {
    return failed_subnets_.size();
  }
  /// Takes a router down entirely: every segment it participates in stops
  /// carrying traffic, its control plane leaves the network, and probes
  /// to its addresses go unanswered. Returns false for unknown or
  /// already-failed routers. Call start() again to reconverge.
  bool fail_node(std::string_view router_name);
  /// Brings a failed router back. Returns false when it was not failed.
  bool restore_node(std::string_view router_name);
  [[nodiscard]] std::size_t failed_node_count() const {
    return failed_routers_.size();
  }
  /// Names of currently failed routers, sorted.
  [[nodiscard]] std::vector<std::string> failed_nodes() const;

  // --- Introspection ------------------------------------------------------
  [[nodiscard]] std::size_t router_count() const { return routers_.size(); }
  [[nodiscard]] std::vector<std::string> router_names() const;
  [[nodiscard]] const VirtualRouter* router(std::string_view name) const;
  [[nodiscard]] VirtualRouter* router(std::string_view name);
  [[nodiscard]] const ConvergenceReport& last_report() const { return report_; }
  /// Control-plane work counters (also via exec "show metrics").
  [[nodiscard]] const EmulationStats& stats() const { return stats_; }

  /// Which router owns this address (interface or loopback)?
  [[nodiscard]] std::optional<std::string> owner_of(addressing::Ipv4Addr addr) const;

  // --- Data plane -----------------------------------------------------------
  [[nodiscard]] TracerouteResult traceroute(std::string_view src_router,
                                            addressing::Ipv4Addr dst,
                                            int max_ttl = 30) const;
  [[nodiscard]] TracerouteResult traceroute(std::string_view src_router,
                                            std::string_view dst_router,
                                            int max_ttl = 30) const;
  [[nodiscard]] bool ping(std::string_view src_router,
                          addressing::Ipv4Addr dst) const;
  /// Pings every router's loopback from every other router (routers
  /// without a loopback are never reached), one forwarding column per
  /// loopback. The summary measurement behind
  /// MeasurementClient::reachability() and IncidentRunner.
  [[nodiscard]] ReachabilityMatrix reachability() const;
  /// The forwarding column (emulation/forwarding.hpp) towards each of
  /// `targets` in turn, over the converged FIBs compiled once per call:
  /// visit(k, column) gets the column towards targets[k], one cell per
  /// router in router_names() order, router indices in that order too.
  /// A failed router neither sources nor answers probes. Throws
  /// std::logic_error before start().
  void forwarding_columns(
      const std::vector<addressing::Ipv4Addr>& targets, int max_ttl,
      const std::function<void(std::size_t, const std::vector<ForwardingCell>&)>& visit)
      const;

  /// Runs a command against a router, emulating the measurement client's
  /// remote execution: supports "traceroute -naU <ip>" and
  /// "show ip ospf neighbor". Returns raw text output.
  [[nodiscard]] std::string exec(std::string_view router_name,
                                 std::string_view command) const;

 private:
  EmulatedNetwork() = default;

  void index_addresses();
  void build_segments();
  void compute_ospf();        // ospf.cpp
  ConvergenceReport run_bgp(std::size_t max_rounds,
                            core::RunControl* control);  // bgp.cpp
  void install_bgp_routes();  // bgp.cpp

  /// Index of a probe's source router; throws on unknown names.
  [[nodiscard]] std::size_t probe_source(std::string_view name) const;
  /// emulation::walk over the converged FIBs from router `src`, where a
  /// failed router neither sources nor answers probes (dataplane.cpp).
  /// Throws std::logic_error before start(), as does forwarding_columns.
  template <typename OnHop>
  WalkOutcome forward(std::size_t src, addressing::Ipv4Addr dst, int max_ttl,
                      OnHop&& on_hop) const;

  /// IGP metric from router r to address `addr`; infinity when unknown.
  [[nodiscard]] double igp_metric_to(std::size_t r, addressing::Ipv4Addr addr) const;

  std::vector<VirtualRouter> routers_;
  std::map<std::string, std::size_t, std::less<>> by_name_;
  std::map<std::uint32_t, std::size_t> by_address_;  // addr -> router index
  std::vector<Segment> segments_;
  std::vector<BgpSession> sessions_;
  /// igp_dist_[r] : router index -> distance (same IGP domain only).
  std::vector<std::map<std::size_t, double>> igp_dist_;
  /// Explicit adjacency (C-BGP mode): pairs + weight; empty otherwise.
  std::vector<CbgpLink> explicit_links_;
  /// Direct neighbors per router (explicit-links mode), irrespective of
  /// IGP domain — used for eBGP next-hop resolution.
  std::vector<std::set<std::size_t>> direct_neighbors_;
  /// True when the subnet's segment is down — failed directly or owned
  /// by a failed router.
  [[nodiscard]] bool subnet_down(const addressing::Ipv4Prefix& subnet) const {
    return failed_subnets_.contains(subnet) ||
           node_failed_subnets_.contains(subnet);
  }
  [[nodiscard]] bool router_failed(std::size_t r) const {
    return failed_routers_.contains(r);
  }

  /// Subnets whose segment is administratively down (what-if analysis).
  std::set<addressing::Ipv4Prefix> failed_subnets_;
  /// Routers taken down by fail_node, plus the segments they drag down.
  std::set<std::size_t> failed_routers_;
  std::set<addressing::Ipv4Prefix> node_failed_subnets_;
  ConvergenceReport report_;
  EmulationStats stats_;
  bool started_ = false;

  friend struct NetworkTestPeer;
};

}  // namespace autonet::emulation
