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
#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <set>

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

  // Sessions by advertising router, deterministic order.
  std::vector<std::vector<std::size_t>> sessions_of(routers_.size());
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    sessions_of[sessions_[i].local].push_back(i);
  }

  // Ingress local-preference policies: (receiver, neighbor addr) -> pref.
  std::map<std::pair<std::size_t, std::uint32_t>, std::int64_t> pref_in;
  for (std::size_t r = 0; r < routers_.size(); ++r) {
    for (const auto& n : routers_[r].config().bgp_neighbors) {
      if (n.local_pref_in > 0) pref_in[{r, n.neighbor.value()}] = n.local_pref_in;
    }
  }

  // --- Seed locally originated routes ---------------------------------------
  for (auto& router : routers_) {
    router.rib_in().clear();
    router.bgp_best().clear();
  }
  for (std::size_t r = 0; r < routers_.size(); ++r) {
    if (router_failed(r)) continue;
    const RouterConfig& cfg = routers_[r].config();
    for (const auto& prefix : cfg.bgp_networks) {
      BgpRoute route;
      route.prefix = prefix;
      route.next_hop = router_id(cfg);
      route.weight = 32768;
      route.local_originated = true;
      route.originator_id = router_id(cfg);
      routers_[r].rib_in()[{prefix.to_string(), 0}] = route;
    }
  }

  // --- Decision process -------------------------------------------------
  auto better = [this](std::size_t r, const BgpRoute& a, const BgpRoute& b) {
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
    if (routers_[r].config().igp_tiebreak) {
      double ma = igp_metric_to(r, a.next_hop);
      double mb = igp_metric_to(r, b.next_hop);
      if (ma != mb) return ma < mb;
    }
    if (a.originator_id != b.originator_id) return a.originator_id < b.originator_id;
    return a.from_peer < b.from_peer;
  };

  auto select_best = [this, &better](std::size_t r) {
    std::map<std::string, BgpRoute> best;
    for (const auto& [key, route] : routers_[r].rib_in()) {
      // Next hop must resolve (connected, IGP-known, or self).
      if (!route.local_originated) {
        bool resolvable = owns_address(routers_[r].config(), route.next_hop);
        if (!resolvable) {
          for (const auto& iface : routers_[r].config().interfaces) {
            if (iface.address.prefix.contains(route.next_hop)) resolvable = true;
          }
        }
        if (!resolvable) {
          resolvable = igp_metric_to(r, route.next_hop) !=
                       std::numeric_limits<double>::infinity();
        }
        if (!resolvable && !direct_neighbors_.empty()) {
          // Explicit-links mode: a directly linked node resolves even
          // across IGP domain boundaries (connected route in C-BGP).
          auto owner = by_address_.find(route.next_hop.value());
          if (owner != by_address_.end()) {
            resolvable = direct_neighbors_[r].contains(owner->second);
          }
        }
        if (!resolvable) continue;
      }
      auto it = best.find(key.first);
      if (it == best.end() || better(r, route, it->second)) {
        best[key.first] = route;
      }
    }
    return best;
  };

  ConvergenceReport report;
  std::map<std::size_t, std::size_t> seen_states;  // fingerprint hash -> round
  // Routers whose selection changed in the most recent round: the
  // partial state reported when the round budget runs out.
  std::set<std::size_t> unsettled;

  for (std::size_t round = 1; round <= max_rounds; ++round) {
    // Cooperative cancellation: convergence on large topologies is the
    // longest emulation stage, so an interrupt lands within one round.
    core::checkpoint(control, "emulation.bgp.round");
    bool changed = false;
    unsettled.clear();
    for (std::size_t r = 0; r < routers_.size(); ++r) {
      if (!routers_[r].config().bgp_enabled || router_failed(r)) continue;
      ++stats_.decision_reruns;
      auto best = select_best(r);
      if (best == routers_[r].bgp_best() && round > 1) continue;

      // Withdraw prefixes no longer selected.
      for (const auto& [prefix, old_route] : routers_[r].bgp_best()) {
        if (best.contains(prefix)) continue;
        for (std::size_t si : sessions_of[r]) {
          const BgpSession& s = sessions_[si];
          // At the peer, routes from us are keyed by our session address.
          routers_[s.peer].rib_in().erase({prefix, s.local_addr.value()});
          ++report.updates;
          ++stats_.bgp_withdrawals;
        }
        changed = true;
        unsettled.insert(r);
      }

      // Advertise (possibly re-advertise) the current selections.
      for (const auto& [prefix, route] : best) {
        const BgpRoute* previous = nullptr;
        auto prev_it = routers_[r].bgp_best().find(prefix);
        if (prev_it != routers_[r].bgp_best().end()) previous = &prev_it->second;
        const bool is_new = previous == nullptr || !(*previous == route);
        if (!is_new) continue;
        changed = true;
        unsettled.insert(r);
        for (std::size_t si : sessions_of[r]) {
          const BgpSession& s = sessions_[si];
          const auto rib_key =
              std::make_pair(prefix, s.local_addr.value());

          // Split horizon: never send a route back over the session it
          // arrived on.
          if (!route.local_originated && route.from_peer == s.peer_addr) {
            routers_[s.peer].rib_in().erase(rib_key);
            continue;
          }
          // "^$" export policy: stub routers advertise only their own
          // prefixes (paper's Small-Internet lab marks AS200 this way).
          if (s.only_local_out && !route.local_originated) {
            routers_[s.peer].rib_in().erase(rib_key);
            continue;
          }

          bool advertise = false;
          BgpRoute out = route;
          out.from_peer = s.local_addr;
          out.weight = 0;
          out.local_originated = false;  // the receiver learned it
          if (s.ebgp) {
            advertise = true;
            out.as_path.insert(out.as_path.begin(), routers_[r].asn());
            out.next_hop = s.local_addr;
            // Receiver-side ingress policy (or the provider default).
            auto pref = pref_in.find({s.peer, s.local_addr.value()});
            out.local_pref = pref == pref_in.end() ? 100 : pref->second;
            // Egress MED (advertiser-side policy; 0 when unset).
            out.med = s.med_out >= 0 ? s.med_out : 0;
            out.originator_id = Ipv4Addr{};
            out.cluster_list.clear();
            out.ebgp_learned = true;  // as seen by the receiver
          } else {
            out.ebgp_learned = false;
            if (route.local_originated || route.ebgp_learned) {
              advertise = true;
              if (s.next_hop_self || route.local_originated) {
                out.next_hop = session_source(routers_[r].config(), s.peer_addr,
                                              true);
              }
              // The speaker's id serves as the tie-break identity for
              // non-reflected iBGP advertisements.
              out.originator_id = router_id(routers_[r].config());
            } else {
              // iBGP-learned: reflect per RFC 4456.
              const bool learned_from_client = [&]() {
                for (std::size_t lj : sessions_of[r]) {
                  const BgpSession& ls = sessions_[lj];
                  if (ls.peer_addr == route.from_peer) return ls.peer_is_client;
                }
                return false;
              }();
              advertise = learned_from_client || s.peer_is_client;
              if (advertise) {
                out.cluster_list.push_back(router_id(routers_[r].config()));
                // ORIGINATOR_ID is preserved; next hop unchanged.
              }
            }
          }
          if (!advertise) {
            routers_[s.peer].rib_in().erase(rib_key);
            continue;
          }

          // Receiver-side loop prevention.
          bool drop = false;
          if (s.ebgp) {
            for (auto as : out.as_path) {
              if (as == routers_[s.peer].asn()) drop = true;
            }
          } else {
            const Ipv4Addr peer_id = router_id(routers_[s.peer].config());
            if (out.originator_id == peer_id) drop = true;
            for (const auto& cluster : out.cluster_list) {
              if (cluster == peer_id) drop = true;
            }
          }
          ++report.updates;
          if (drop) {
            routers_[s.peer].rib_in().erase(rib_key);
          } else {
            routers_[s.peer].rib_in()[rib_key] = out;
          }
        }
      }
      routers_[r].bgp_best() = std::move(best);
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

    // Oscillation detection: fingerprint the global selection state.
    std::string state;
    for (const auto& router : routers_) {
      state += router.name() + "{";
      for (const auto& [prefix, route] : router.bgp_best()) {
        state += route.fingerprint() + ";";
      }
      state += "}";
    }
    std::size_t h = std::hash<std::string>{}(state);
    auto [it, inserted] = seen_states.emplace(h, round);
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
