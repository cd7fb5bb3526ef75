// BGP route propagation and best-path selection.
//
// Decision process (in order): weight, local-pref, AS-path length,
// origin (constant here), MED (not modelled), eBGP-over-iBGP, IGP metric
// to next hop (*only when the vendor applies it* — §7.2: IOS/Junos/C-BGP
// yes, Quagga no), originator router-id, neighbor address.
//
// Route reflection follows RFC 4456: client routes reflect to all peers,
// non-client routes reflect to clients only; ORIGINATOR_ID and
// CLUSTER_LIST provide loop prevention. next-hop-self rewrites the next
// hop for locally-originated and eBGP-learned routes advertised over
// iBGP, but never for reflected routes.
//
// Propagation runs in deterministic round-robin rounds until a full round
// produces no change (converged) or the global state revisits an earlier
// fingerprint (oscillation detected — the Bad-Gadget signature).
//
// The state is flat: prefixes are interned per run (ids in prefix-text
// order, so id order is the order every output was defined in), and each
// router holds its Loc-RIB and Adj-RIB-In by prefix id (BgpTables). A
// write that changes an Adj-RIB-In entry marks that (router, prefix);
// every router decides in round 1, and afterwards only marked prefixes
// are re-selected. Routers still run in index order and updates still
// apply at once, so every round, update and partial state is the one the
// full rerun gave. The state hash is kept current as selections change.
#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>

#include "core/hash.hpp"
#include "emulation/network.hpp"
#include "obs/recorder.hpp"

namespace autonet::emulation {

using addressing::Ipv4Addr;
using addressing::Ipv4Prefix;

std::string BgpRoute::fingerprint() const {
  std::string out = prefix.to_string() + "|";
  for (auto as : as_path) out += std::to_string(as) + ",";
  out += "|" + next_hop.to_string() + "|" + from_peer.to_string() + "|" +
         std::to_string(local_pref);
  return out;
}

std::optional<std::size_t> BgpTables::find(std::string_view prefix) const {
  if (!prefixes) return std::nullopt;
  auto it = std::ranges::lower_bound(*prefixes, prefix);
  if (it == prefixes->end() || *it != prefix) return std::nullopt;
  return static_cast<std::size_t>(it - prefixes->begin());
}

namespace {

/// One (router, prefix id) slot's term of the running state hash: FNV-1a
/// over exactly the fields fingerprint() covers (prefix, AS path, next
/// hop, from_peer, local-pref), so two states hash alike when their
/// fingerprints agree, as the revisit rounds of MED churn and Bad Gadget
/// require.
std::uint64_t slot_term(std::size_t router, std::size_t prefix,
                        const BgpRoute& route) {
  std::uint64_t h = kFnvOffsetBasis;
  auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= kFnvPrime;
    }
  };
  fold(router);
  fold(prefix);
  fold(route.as_path.size());
  for (auto as : route.as_path) fold(static_cast<std::uint64_t>(as));
  fold(route.next_hop.value());
  fold(route.from_peer.value());
  fold(static_cast<std::uint64_t>(route.local_pref));
  return h;
}

}  // namespace

ConvergenceReport EmulatedNetwork::run_bgp(std::size_t max_rounds,
                                           core::RunControl* control) {
  // --- Establish sessions ---------------------------------------------------
  sessions_.clear();
  for (std::size_t r = 0; r < routers_.size(); ++r) {
    const RouterConfig& cfg = routers_[r].config();
    if (!cfg.bgp_enabled || router_failed(r)) continue;
    for (const auto& n : cfg.bgp_neighbors) {
      auto owner = by_address_.find(n.neighbor.value());
      if (owner == by_address_.end()) continue;
      std::size_t peer = owner->second;
      if (peer == r || router_failed(peer)) continue;
      const RouterConfig& pc = routers_[peer].config();
      if (!pc.bgp_enabled) continue;
      // The peer must have a matching neighbor statement back to one of
      // our addresses with the right AS (sessions are bidirectional).
      bool matched = false;
      for (const auto& pn : pc.bgp_neighbors) {
        if (owns_address(cfg, pn.neighbor) && pn.remote_as == cfg.asn &&
            n.remote_as == pc.asn) {
          matched = true;
          break;
        }
      }
      if (!matched) continue;
      BgpSession s;
      s.local = r;
      s.peer = peer;
      s.peer_addr = n.neighbor;
      s.local_addr = session_source(cfg, n.neighbor, n.update_source_loopback);
      s.ebgp = cfg.asn != pc.asn;
      s.peer_is_client = n.rr_client;
      s.next_hop_self = n.next_hop_self;
      s.only_local_out = n.only_local_out;
      s.med_out = n.med_out;

      // The TCP session must be able to form: the neighbor address is on
      // a live connected subnet, IGP-reachable, or a direct C-BGP link.
      bool reachable = false;
      for (const auto& iface : cfg.interfaces) {
        if (iface.address.prefix.contains(n.neighbor) &&
            !subnet_down(iface.address.prefix)) {
          reachable = true;
          break;
        }
      }
      if (!reachable) {
        reachable = igp_metric_to(r, n.neighbor) !=
                    std::numeric_limits<double>::infinity();
      }
      if (!reachable && !direct_neighbors_.empty()) {
        reachable = direct_neighbors_[r].contains(peer);
      }
      if (!reachable) continue;
      sessions_.push_back(s);
    }
  }
  stats_.bgp_sessions = sessions_.size();
  const std::size_t n = routers_.size();

  // Sessions by advertising router, deterministic order.
  std::vector<std::vector<std::size_t>> sessions_of(n);
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    sessions_of[sessions_[i].local].push_back(i);
  }

  // What the rounds would otherwise recompute per route: router ids, and
  // per session the receiver's ingress local-preference (its policy for
  // our address, else the provider default) and our next-hop-self address.
  std::vector<Ipv4Addr> ids(n);
  std::map<std::pair<std::size_t, std::uint32_t>, std::int64_t> pref_in;
  for (std::size_t r = 0; r < n; ++r) {
    ids[r] = router_id(routers_[r].config());
    for (const auto& nb : routers_[r].config().bgp_neighbors) {
      if (nb.local_pref_in > 0) pref_in[{r, nb.neighbor.value()}] = nb.local_pref_in;
    }
  }
  std::vector<std::int64_t> session_pref(sessions_.size(), 100);
  std::vector<Ipv4Addr> session_nh_self(sessions_.size());
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    const BgpSession& s = sessions_[i];
    auto pref = pref_in.find({s.peer, s.local_addr.value()});
    if (pref != pref_in.end()) session_pref[i] = pref->second;
    session_nh_self[i] = session_source(routers_[s.local].config(), s.peer_addr, true);
  }

  // --- Intern prefixes, ids in text order -----------------------------------
  std::vector<std::string> texts;
  for (std::size_t r = 0; r < n; ++r) {
    if (router_failed(r)) continue;
    for (const auto& prefix : routers_[r].config().bgp_networks) {
      texts.push_back(prefix.to_string());
    }
  }
  std::ranges::sort(texts);
  texts.erase(std::unique(texts.begin(), texts.end()), texts.end());
  const std::size_t np = texts.size();
  auto prefixes = std::make_shared<const std::vector<std::string>>(std::move(texts));
  for (auto& router : routers_) {
    BgpTables& tables = router.mutable_bgp();
    tables.prefixes = prefixes;
    tables.best.assign(np, std::nullopt);
    tables.rib_in.assign(np, {});
  }

  // --- Adj-RIB-In writes and dirty marks ------------------------------------
  // A write that changes router r's entries for prefix k marks (r, k):
  // after round 1, a router reruns its decision only for marked prefixes.
  std::vector<std::uint8_t> dirty(n * np, 0);
  std::vector<std::size_t> dirty_count(n, 0);
  auto mark = [&](std::size_t r, std::size_t k) {
    if (dirty[r * np + k] == 0) {
      dirty[r * np + k] = 1;
      ++dirty_count[r];
    }
  };
  // Resolves an entry's next hop at its receiver: connected, IGP-known,
  // or self; in explicit-links mode a directly linked node resolves even
  // across IGP domain boundaries (connected route in C-BGP).
  auto resolve = [this](std::size_t r, BgpRibInEntry& e) {
    const Ipv4Addr nh = e.route.next_hop;
    const RouterConfig& cfg = routers_[r].config();
    e.igp_metric = igp_metric_to(r, nh);
    e.resolvable = e.route.local_originated || owns_address(cfg, nh) ||
                   std::ranges::any_of(cfg.interfaces, [nh](const auto& iface) {
                     return iface.address.prefix.contains(nh);
                   }) ||
                   e.igp_metric != std::numeric_limits<double>::infinity();
    if (!e.resolvable && !direct_neighbors_.empty()) {
      auto owner = by_address_.find(nh.value());
      e.resolvable = owner != by_address_.end() &&
                     direct_neighbors_[r].contains(owner->second);
    }
  };
  auto write = [&](std::size_t r, std::size_t k, std::uint32_t from,
                   const BgpRoute& route) {
    auto& list = routers_[r].mutable_bgp().rib_in[k];
    auto it = std::ranges::lower_bound(list, from, {}, &BgpRibInEntry::from);
    if (it != list.end() && it->from == from) {
      if (it->route == route) return;
      const bool moved = it->route.next_hop != route.next_hop ||
                         it->route.local_originated != route.local_originated;
      it->route = route;
      if (moved) resolve(r, *it);
    } else {
      if (list.empty()) {
        // Most prefixes are heard from two peers (95% of nren's slots hold
        // two entries). Starting at two skips a reallocation per slot,
        // whose freed chunks left the heap fragmented for what ran next.
        list.reserve(2);
        it = list.end();
      }
      it = list.insert(it, BgpRibInEntry{.from = from, .route = route});
      resolve(r, *it);
    }
    mark(r, k);
  };
  auto erase = [&](std::size_t r, std::size_t k, std::uint32_t from) {
    auto& list = routers_[r].mutable_bgp().rib_in[k];
    auto it = std::ranges::lower_bound(list, from, {}, &BgpRibInEntry::from);
    if (it == list.end() || it->from != from) return;
    list.erase(it);
    mark(r, k);
  };

  // --- Seed locally originated routes ---------------------------------------
  for (std::size_t r = 0; r < n; ++r) {
    if (router_failed(r)) continue;
    for (const auto& prefix : routers_[r].config().bgp_networks) {
      BgpRoute route;
      route.prefix = prefix;
      route.next_hop = ids[r];
      route.weight = 32768;
      route.local_originated = true;
      route.originator_id = ids[r];
      write(r, *routers_[r].mutable_bgp().find(prefix.to_string()), 0, route);
    }
  }

  // --- Decision process -------------------------------------------------
  auto better = [this](std::size_t r, const BgpRibInEntry& x,
                       const BgpRibInEntry& y) {
    const BgpRoute& a = x.route;
    const BgpRoute& b = y.route;
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.local_pref != b.local_pref) return a.local_pref > b.local_pref;
    if (a.as_path.size() != b.as_path.size()) {
      return a.as_path.size() < b.as_path.size();
    }
    // MED: compared only between routes from the same neighboring AS
    // (the standard, non-always-compare behaviour the §7.2-cited MED
    // oscillation analyses assume).
    if (!a.as_path.empty() && !b.as_path.empty() &&
        a.as_path.front() == b.as_path.front() && a.med != b.med) {
      return a.med < b.med;
    }
    if (a.ebgp_learned != b.ebgp_learned) return a.ebgp_learned;
    if (routers_[r].config().igp_tiebreak && x.igp_metric != y.igp_metric) {
      return x.igp_metric < y.igp_metric;
    }
    if (a.originator_id != b.originator_id) return a.originator_id < b.originator_id;
    return a.from_peer < b.from_peer;
  };

  // Whether router r learned a route over a session to an RR client.
  auto learned_from_client = [&](std::size_t r, Ipv4Addr from_peer) {
    for (std::size_t si : sessions_of[r]) {
      if (sessions_[si].peer_addr == from_peer) return sessions_[si].peer_is_client;
    }
    return false;
  };

  // Advertises router r's selection for prefix k over each of its sessions
  // (or withdraws it where policy or loop prevention forbids).
  ConvergenceReport report;
  BgpRoute out;  // the advertisement; its buffers are reused
  auto advertise = [&](std::size_t r, std::size_t k, const BgpRoute& route) {
    std::optional<bool> from_client;
    for (std::size_t si : sessions_of[r]) {
      const BgpSession& s = sessions_[si];
      // At the peer, routes from us are keyed by our session address.
      const std::uint32_t key = s.local_addr.value();

      // Split horizon: never send a route back over the session it
      // arrived on.
      if (!route.local_originated && route.from_peer == s.peer_addr) {
        erase(s.peer, k, key);
        continue;
      }
      // "^$" export policy: stub routers advertise only their own
      // prefixes (paper's Small-Internet lab marks AS200 this way).
      if (s.only_local_out && !route.local_originated) {
        erase(s.peer, k, key);
        continue;
      }

      bool advertised = false;
      out = route;
      out.from_peer = s.local_addr;
      out.weight = 0;
      out.local_originated = false;  // the receiver learned it
      if (s.ebgp) {
        advertised = true;
        out.as_path.insert(out.as_path.begin(), routers_[r].asn());
        out.next_hop = s.local_addr;
        out.local_pref = session_pref[si];
        // Egress MED (advertiser-side policy; 0 when unset).
        out.med = s.med_out >= 0 ? s.med_out : 0;
        out.originator_id = Ipv4Addr{};
        out.cluster_list.clear();
        out.ebgp_learned = true;  // as seen by the receiver
      } else {
        out.ebgp_learned = false;
        if (route.local_originated || route.ebgp_learned) {
          advertised = true;
          if (s.next_hop_self || route.local_originated) {
            out.next_hop = session_nh_self[si];
          }
          // The speaker's id serves as the tie-break identity for
          // non-reflected iBGP advertisements.
          out.originator_id = ids[r];
        } else {
          // iBGP-learned: reflect per RFC 4456.
          if (!from_client) from_client = learned_from_client(r, route.from_peer);
          advertised = *from_client || s.peer_is_client;
          if (advertised) {
            out.cluster_list.push_back(ids[r]);
            // ORIGINATOR_ID is preserved; next hop unchanged.
          }
        }
      }
      if (!advertised) {
        erase(s.peer, k, key);
        continue;
      }

      // Receiver-side loop prevention.
      const bool drop =
          s.ebgp ? std::ranges::find(out.as_path, routers_[s.peer].asn()) !=
                       out.as_path.end()
                 : out.originator_id == ids[s.peer] ||
                       std::ranges::find(out.cluster_list, ids[s.peer]) !=
                           out.cluster_list.end();
      ++report.updates;
      if (drop) {
        erase(s.peer, k, key);
      } else {
        write(s.peer, k, key, out);
      }
    }
  };

  // Oscillation detection: the global selection state is hashed as a
  // wrapping sum of one term per selected route, kept current as
  // selections change; a revisited hash is a revisited state.
  std::map<std::uint64_t, std::size_t> seen_states;  // state hash -> round
  std::uint64_t state = 0;
  // Routers whose selection changed in the most recent round: the
  // partial state reported when the round budget runs out.
  std::set<std::size_t> unsettled;

  for (std::size_t round = 1; round <= max_rounds; ++round) {
    // Cooperative cancellation: convergence on large topologies is the
    // longest emulation stage, so an interrupt lands within one round.
    core::checkpoint(control, "emulation.bgp.round");
    bool changed = false;
    unsettled.clear();
    for (std::size_t r = 0; r < n; ++r) {
      if (!routers_[r].config().bgp_enabled || router_failed(r)) continue;
      // Every router decides in round 1; later, a selection can only
      // change where the Adj-RIB-In did.
      if (round > 1 && dirty_count[r] == 0) continue;
      ++stats_.decision_reruns;
      BgpTables& tables = routers_[r].mutable_bgp();
      for (std::size_t k = 0; k < np; ++k) {
        if (dirty[r * np + k] != 0) {
          dirty[r * np + k] = 0;
          --dirty_count[r];
        } else if (round > 1) {
          continue;
        }
        const BgpRibInEntry* chosen = nullptr;
        for (const auto& e : tables.rib_in[k]) {
          if (!e.resolvable) continue;
          if (chosen == nullptr || better(r, e, *chosen)) chosen = &e;
        }
        std::optional<BgpRoute>& slot = tables.best[k];
        if (chosen == nullptr) {
          if (!slot) continue;
          // Withdraw the prefix no longer selected.
          for (std::size_t si : sessions_of[r]) {
            const BgpSession& s = sessions_[si];
            erase(s.peer, k, s.local_addr.value());
            ++report.updates;
            ++stats_.bgp_withdrawals;
          }
          state -= slot_term(r, k, *slot);
          slot.reset();
        } else {
          // Advertise (possibly re-advertise) a changed selection.
          if (slot && *slot == chosen->route) continue;
          advertise(r, k, chosen->route);
          if (slot) state -= slot_term(r, k, *slot);
          state += slot_term(r, k, chosen->route);
          slot = chosen->route;
        }
        changed = true;
        unsettled.insert(r);
      }
    }
    obs::record("emulation", "bgp.round",
                {{"round", std::to_string(round)},
                 {"changed", changed ? "1" : "0"},
                 {"updates", std::to_string(report.updates)}});

    if (!changed) {
      report.converged = true;
      report.rounds = round;
      obs::record("emulation", "bgp.converged",
                  {{"rounds", std::to_string(round)},
                   {"updates", std::to_string(report.updates)}});
      return report;
    }

    auto [it, inserted] = seen_states.emplace(state, round);
    if (!inserted) {
      report.oscillating = true;
      report.rounds = round;
      report.period = round - it->second;
      obs::record("emulation", obs::Severity::kWarning, "bgp.oscillating",
                  {{"rounds", std::to_string(round)},
                   {"period", std::to_string(report.period)}});
      return report;
    }
  }
  // Round budget exhausted without convergence or oscillation: report
  // the partial state instead of silently capping.
  report.rounds = max_rounds;
  core::ConvergenceTimeout timeout;
  timeout.rounds_completed = max_rounds;
  timeout.budget_rounds = max_rounds;
  for (std::size_t r : unsettled) {
    timeout.unsettled_routers.push_back(routers_[r].name());
  }
  std::sort(timeout.unsettled_routers.begin(), timeout.unsettled_routers.end());
  obs::record("emulation", obs::Severity::kWarning, "bgp.timeout",
              {{"budget_rounds", std::to_string(max_rounds)},
               {"unsettled", std::to_string(timeout.unsettled_routers.size())}});
  report.timeout = std::move(timeout);
  return report;
}

void EmulatedNetwork::install_bgp_routes() {
  for (std::size_t r = 0; r < routers_.size(); ++r) {
    VirtualRouter& router = routers_[r];
    auto& fib = router.mutable_fib();
    // Drop previously installed BGP routes (start() may be re-run).
    std::erase_if(fib, [](const FibEntry& e) {
      return e.source == RouteSource::kEbgp || e.source == RouteSource::kIbgp;
    });
    for (const auto& [prefix_str, route] : router.bgp_best()) {
      if (route.local_originated) continue;
      // Resolve the BGP next hop: directly connected, or recursively via
      // an IGP/connected route.
      std::string out_interface;
      std::optional<Ipv4Addr> immediate;
      bool resolved = false;
      for (const auto& iface : router.config().interfaces) {
        if (iface.address.prefix.contains(route.next_hop)) {
          out_interface = iface.id;
          immediate = route.next_hop;
          resolved = true;
          break;
        }
      }
      if (!resolved) {
        const FibEntry* via = router.lookup(route.next_hop);
        if (via != nullptr && via->source != RouteSource::kEbgp &&
            via->source != RouteSource::kIbgp) {
          out_interface = via->out_interface;
          immediate = via->next_hop ? via->next_hop : route.next_hop;
          resolved = true;
        }
      }
      if (!resolved && !direct_neighbors_.empty()) {
        auto owner = by_address_.find(route.next_hop.value());
        if (owner != by_address_.end() &&
            direct_neighbors_[r].contains(owner->second)) {
          immediate = route.next_hop;
          resolved = true;
        }
      }
      if (!resolved) continue;
      fib.push_back(FibEntry{
          route.prefix,
          route.ebgp_learned ? RouteSource::kEbgp : RouteSource::kIbgp,
          out_interface, immediate,
          static_cast<double>(route.as_path.size())});
    }
  }
}

}  // namespace autonet::emulation
