// The virtual router: configuration plus control-plane state (RIB/FIB,
// BGP Adj-RIB-In and selections). The emulation substitutes for running
// real Quagga/IOS images: it implements the same decision processes —
// including the vendor divergence in the BGP IGP-metric tie-break that
// the paper's §7.2 experiment hinges on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "emulation/config_parse.hpp"
#include "emulation/forwarding.hpp"

namespace autonet::emulation {

/// The path attributes a route carries: all of BgpRoute but its prefix
/// and the session it arrived over. A BGP run stores each distinct set
/// once (BgpAttrTable), as real BGP daemons intern path attributes.
struct BgpAttrs {
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

  friend bool operator==(const BgpAttrs&, const BgpAttrs&) = default;
};

/// A BGP route as held in Adj-RIB-In (attributes after ingress policy).
struct BgpRoute : BgpAttrs {
  addressing::Ipv4Prefix prefix;
  addressing::Ipv4Addr from_peer;      // session address it arrived over

  /// Stable identity for oscillation detection.
  [[nodiscard]] std::string fingerprint() const;

  friend bool operator==(const BgpRoute&, const BgpRoute&) = default;
};

/// One BGP run's path attributes, each distinct set stored once and
/// addressed by an id in order of first use. References stay valid while
/// the table grows.
class BgpAttrTable {
 public:
  /// The id of `attrs`, a new one when no equal set is stored yet.
  std::uint32_t intern(const BgpAttrs& attrs);
  [[nodiscard]] const BgpAttrs& operator[](std::uint32_t id) const { return records_[id]; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

 private:
  std::deque<BgpAttrs> records_;
  std::vector<std::uint64_t> hashes_;  // by id
  /// Open addressing over ids (kEmpty when free), at most half full.
  std::vector<std::uint32_t> slots_;
};

/// What the routers of one BGP run share: its prefixes, with ids in
/// Ipv4Prefix::to_string() order, and its path attributes.
struct BgpRun {
  std::vector<std::string> prefix_text;  // by prefix id
  std::vector<addressing::Ipv4Prefix> prefix;  // by prefix id
  BgpAttrTable attrs;
};

/// A route of one BGP run as its tables hold it: the id of its
/// attributes and the session address it arrived over (0 for a route
/// originated here). The prefix is the slot's.
struct BgpRouteRef {
  static constexpr std::uint32_t kNone = 0xffffffff;
  std::uint32_t attrs = kNone;
  std::uint32_t from = 0;

  [[nodiscard]] bool empty() const { return attrs == kNone; }
  friend bool operator==(const BgpRouteRef&, const BgpRouteRef&) = default;
};

/// An Adj-RIB-In entry: the route, and what the receiver resolved for its
/// next hop when the entry was written.
struct BgpRibInEntry {
  BgpRouteRef route;
  double igp_metric = 0;   // the receiver's IGP metric to the next hop
  bool resolvable = true;  // the next hop resolves at the receiver
};
static_assert(sizeof(BgpRibInEntry) <= 32);

class EmulatedNetwork;

/// One router's BGP tables, addressed by the prefix ids of the last BGP
/// run (EmulatedNetwork::start): ids follow Ipv4Prefix::to_string()
/// order, so iterating by id is iterating by prefix text. The tables hold
/// handles into the run's shared attributes; the accessors rebuild whole
/// BgpRoute values.
class BgpTables {
 public:
  /// The number of prefix ids.
  [[nodiscard]] std::size_t size() const { return best_.size(); }
  /// The text of prefix id k.
  [[nodiscard]] const std::string& prefix(std::size_t k) const {
    return run_->prefix_text[k];
  }
  /// The id of a prefix text; nullopt when the run holds no such prefix.
  [[nodiscard]] std::optional<std::size_t> find(std::string_view prefix) const;
  /// Whether the Loc-RIB holds a route for prefix id k.
  [[nodiscard]] bool selected(std::size_t k) const { return !best_[k].empty(); }
  /// The Loc-RIB route for prefix id k, which selected(k) must hold.
  [[nodiscard]] BgpRoute best(std::size_t k) const { return route(k, best_[k]); }
  /// The Adj-RIB-In for prefix id k: at most one route per session
  /// address, in the order of that address.
  [[nodiscard]] std::vector<BgpRoute> rib_in(std::size_t k) const;

 private:
  friend class EmulatedNetwork;
  [[nodiscard]] BgpRoute route(std::size_t k, BgpRouteRef ref) const;

  std::shared_ptr<const BgpRun> run_;
  /// Loc-RIB: the selected route per prefix id; empty when none.
  std::vector<BgpRouteRef> best_;
  /// Adj-RIB-In: per prefix id, entries sorted by session address.
  std::vector<std::vector<BgpRibInEntry>> rib_in_;
};

/// The Loc-RIB as a read-only table of (prefix text, route) pairs, in
/// prefix-text order, looked up by prefix text; each route is built by
/// value. A view: it shows the router's current state, so copy what must
/// outlive the next start().
class BgpBestView {
 public:
  using value_type = std::pair<const std::string&, BgpRoute>;
  class iterator {
   public:
    iterator(const BgpTables* t, std::size_t id) : t_(t), id_(id) { skip(); }
    value_type operator*() const { return {t_->prefix(id_), t_->best(id_)}; }
    struct Arrow {
      value_type v;
      const value_type* operator->() const { return &v; }
    };
    Arrow operator->() const { return {**this}; }
    iterator& operator++() {
      ++id_;
      skip();
      return *this;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    void skip() {
      while (id_ < t_->size() && !t_->selected(id_)) ++id_;
    }
    const BgpTables* t_;
    std::size_t id_;
  };

  explicit BgpBestView(const BgpTables& t) : t_(&t) {}
  [[nodiscard]] iterator begin() const { return {t_, 0}; }
  [[nodiscard]] iterator end() const { return {t_, t_->size()}; }
  [[nodiscard]] iterator find(std::string_view prefix) const {
    auto id = t_->find(prefix);
    return id && t_->selected(*id) ? iterator{t_, *id} : end();
  }

 private:
  const BgpTables* t_;
};

class VirtualRouter {
 public:
  explicit VirtualRouter(RouterConfig config) : config_(std::move(config)) {}

  [[nodiscard]] const RouterConfig& config() const { return config_; }
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
  /// Loc-RIB: the selected route per prefix.
  [[nodiscard]] BgpBestView bgp_best() const { return BgpBestView(bgp_); }
  /// The tables behind it, Adj-RIB-In included.
  [[nodiscard]] const BgpTables& bgp() const { return bgp_; }
  /// The same tables, written by the BGP engine.
  [[nodiscard]] BgpTables& mutable_bgp() { return bgp_; }

 private:
  RouterConfig config_;
  std::vector<FibEntry> fib_;
  std::vector<std::string> ospf_neighbors_;
  BgpTables bgp_;
};

}  // namespace autonet::emulation
