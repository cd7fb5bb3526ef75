// The virtual router: configuration plus control-plane state (RIB/FIB,
// BGP Adj-RIB-In and selections). The emulation substitutes for running
// real Quagga/IOS images: it implements the same decision processes —
// including the vendor divergence in the BGP IGP-metric tie-break that
// the paper's §7.2 experiment hinges on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
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

/// An Adj-RIB-In entry: the route, the advertiser's session address it
/// arrived over (0 for a route originated here), and what the receiver
/// resolved for its next hop when the entry was written.
struct BgpRibInEntry {
  std::uint32_t from = 0;
  bool resolvable = true;  // the next hop resolves at the receiver
  BgpRoute route;
  double igp_metric = 0;   // the receiver's IGP metric to the next hop
};

/// One router's BGP tables, addressed by the prefix ids of the last BGP
/// run (EmulatedNetwork::start): ids follow Ipv4Prefix::to_string()
/// order, so iterating by id is iterating by prefix text.
struct BgpTables {
  /// The text of each prefix id, shared by every router of the run.
  std::shared_ptr<const std::vector<std::string>> prefixes;
  /// Loc-RIB: the selected route per prefix id.
  std::vector<std::optional<BgpRoute>> best;
  /// Adj-RIB-In: per prefix id, at most one entry per session address,
  /// sorted by that address.
  std::vector<std::vector<BgpRibInEntry>> rib_in;

  /// The id of a prefix text; nullopt when the run holds no such prefix.
  [[nodiscard]] std::optional<std::size_t> find(std::string_view prefix) const;
};

/// The Loc-RIB as a read-only table of (prefix text, route) pairs, in
/// prefix-text order, looked up by prefix text. A view: it shows the
/// router's current state, so copy what must outlive the next start().
class BgpBestView {
 public:
  using value_type = std::pair<const std::string&, const BgpRoute&>;
  class iterator {
   public:
    iterator(const BgpTables* t, std::size_t id) : t_(t), id_(id) { skip(); }
    value_type operator*() const { return {(*t_->prefixes)[id_], *t_->best[id_]}; }
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
      while (id_ < t_->best.size() && !t_->best[id_]) ++id_;
    }
    const BgpTables* t_;
    std::size_t id_;
  };

  explicit BgpBestView(const BgpTables& t) : t_(&t) {}
  [[nodiscard]] iterator begin() const { return {t_, 0}; }
  [[nodiscard]] iterator end() const { return {t_, t_->best.size()}; }
  [[nodiscard]] iterator find(std::string_view prefix) const {
    auto id = t_->find(prefix);
    return id && t_->best[*id] ? iterator{t_, *id} : end();
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
  /// The flat tables behind it, Adj-RIB-In included.
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
