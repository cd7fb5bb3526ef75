// The symbolic control-plane model behind `autonet analyze`: compiles
// the NIDB straight into per-router configurations (no rendering, no
// emulation boot) and derives predicted FIBs offline — link-state SPF
// per OSPF area, the full iBGP/eBGP decision process, connected routes,
// and admin-distance arbitration.
//
// The forwarding plane is the emulation's own (emulation/forwarding.hpp):
// the FIB entry and its longest-prefix lookup, the per-config primitives
// (router id, OSPF coverage, address ownership, session source, trace
// target), the segment and session records, the hop-by-hop walk behind
// trace() and the per-destination column behind PathTable. The control
// plane that fills the FIBs — segment grouping, SPF, the BGP decision
// process and FIB install — is written separately in model.cpp,
// mirroring src/emulation/ step for step, so that `--cross-check` can use
// the emulation as a differential oracle; only the *inputs* differ (NIDB
// records here, rendered-and-reparsed configs there). Its state is flat
// and index-addressed, as the emulation's is, but shares no code with it:
// SPF results are rows indexed by router, prefixes are interned once per
// prediction, and BGP reruns a router's decision only for the prefixes
// whose Adj-RIB-In changed.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "addressing/ipv4.hpp"
#include "emulation/forwarding.hpp"
#include "nidb/nidb.hpp"

namespace autonet::verify::analysis {

/// A point-to-point or LAN link: one collision-domain subnet shared by
/// at least two routers. The unit of what-if failure enumeration.
struct Link {
  std::string a;  // lexicographically first member
  std::string b;  // second member (representative on LANs)
  addressing::Ipv4Prefix subnet;
  /// Every router attached to the subnet, sorted.
  std::vector<std::string> members;
};

/// Immutable network model lifted from the NIDB device records. Safe to
/// share read-only across analysis worker threads.
class Model {
 public:
  /// Lifts every router record of the NIDB (from_router_configs).
  [[nodiscard]] static Model from_nidb(const nidb::Nidb& nidb);
  /// A model of hand-built configurations, sorted by hostname and indexed
  /// by name and address: the counterpart of
  /// EmulatedNetwork::from_router_configs.
  [[nodiscard]] static Model from_router_configs(std::vector<emulation::RouterConfig> configs);

  [[nodiscard]] const std::vector<emulation::RouterConfig>& routers() const {
    return configs_;
  }
  [[nodiscard]] std::size_t size() const { return configs_.size(); }
  [[nodiscard]] const emulation::RouterConfig* router(std::string_view name) const;
  [[nodiscard]] std::optional<std::size_t> index_of(std::string_view name) const;
  /// Which router owns this address (interface or loopback)?
  [[nodiscard]] std::optional<std::string> owner_of(addressing::Ipv4Addr addr) const;
  [[nodiscard]] const std::map<std::uint32_t, std::size_t>& by_address() const {
    return by_address_;
  }
  /// Failure-enumerable links: subnets attached to >= 2 routers, in
  /// deterministic (subnet) order.
  [[nodiscard]] std::vector<Link> links() const;

 private:
  std::vector<emulation::RouterConfig> configs_;  // sorted by hostname
  std::map<std::string, std::size_t, std::less<>> by_name_;
  std::map<std::uint32_t, std::size_t> by_address_;
};

/// Predicted control-plane outcome for one (model, failure set) pair.
struct Prediction {
  /// fibs[i] belongs to Model::routers()[i].
  std::vector<std::vector<emulation::FibEntry>> fibs;
  bool bgp_converged = false;
  bool bgp_oscillating = false;
  std::size_t bgp_rounds = 0;
  std::size_t bgp_sessions = 0;
  std::size_t spf_runs = 0;
  /// Routers that ran the BGP decision process, summed over rounds: every
  /// BGP router in round 1, afterwards only those whose Adj-RIB-In changed.
  std::size_t decision_reruns = 0;
};

/// Derives the predicted FIBs with the given subnets administratively
/// down. Pure function of its arguments; thread-safe.
[[nodiscard]] Prediction predict(const Model& model,
                                 const std::set<addressing::Ipv4Prefix>& failed_subnets = {},
                                 std::size_t max_bgp_rounds = 128);

struct PathHop {
  addressing::Ipv4Addr address;
  std::string router;
};

/// A predicted forwarding path: the emulation's traceroute walk over the
/// predicted FIBs.
struct Path {
  bool reached = false;
  /// TTL exhausted: the predicted FIBs forward in a cycle, or a simple
  /// path is longer than max_ttl hops (the forwarding-loop rule skips
  /// paths that visit no router twice).
  bool looped = false;
  /// Router whose FIB dropped the packet when !reached && !looped; equal
  /// to the source router when the source itself had no route.
  std::string dropped_at;
  std::vector<PathHop> hops;
};

/// Walks the predicted FIBs from `src_router` towards `dst`
/// (emulation::walk).
[[nodiscard]] Path trace(const Model& model, const Prediction& prediction,
                         std::string_view src_router, addressing::Ipv4Addr dst,
                         int max_ttl = 30);

/// Traces to a router's loopback (first interface when it has none).
[[nodiscard]] Path trace_to_router(const Model& model, const Prediction& prediction,
                                   std::string_view src_router,
                                   std::string_view dst_router, int max_ttl = 30);

/// The all-pairs forwarding table over one prediction, built one
/// destination at a time (emulation::ColumnBuilder): column d holds, for
/// every source router, the walk trace_to_router(src, d) makes. n × n
/// cells of 12 bytes; every Path field reads back from them.
class PathTable {
 public:
  PathTable(const Model& model, const Prediction& prediction, int max_ttl = 30);

  [[nodiscard]] std::size_t size() const { return size_; }
  /// The column towards router `dst`, indexed by source router.
  [[nodiscard]] std::span<const emulation::ForwardingCell> column(std::size_t dst) const {
    return {cells_.data() + dst * size_, size_};
  }
  [[nodiscard]] const emulation::ForwardingCell& cell(std::size_t src,
                                                      std::size_t dst) const {
    return cells_[dst * size_ + src];
  }
  [[nodiscard]] bool reached(std::size_t src, std::size_t dst) const {
    return cell(src, dst).end == emulation::WalkEnd::kReached;
  }
  /// Path::dropped_at as a router index; nullopt unless the walk dropped.
  [[nodiscard]] std::optional<std::size_t> dropped_at(std::size_t src,
                                                      std::size_t dst) const;
  /// The routers the path visits, starting at `src`, into `out`.
  void routers(std::size_t src, std::size_t dst, std::vector<std::size_t>& out) const;
  /// The Path trace_to_router() returns for this pair.
  [[nodiscard]] Path path(const Model& model, std::size_t src, std::size_t dst) const;

 private:
  std::size_t size_;
  std::vector<emulation::ForwardingCell> cells_;  // column by column
};

}  // namespace autonet::verify::analysis
