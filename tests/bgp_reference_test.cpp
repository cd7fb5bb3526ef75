// The BGP engine against its predecessor. NetworkTestPeer carries the
// round loop EmulatedNetwork::run_bgp had before its state went flat
// (interned prefixes, index-addressed RIBs, dirty-set decision reruns and
// a running state hash): string-keyed std::map RIBs, every router's
// decision rerun every round, the state fingerprinted as one string per
// round. Each input converges once through start(k) and once through the
// reference over a second boot of the same configs, after the same OSPF
// computation; the two must agree on the convergence report, the
// withdrawals, every Adj-RIB-In and Loc-RIB entry (all BgpRoute fields,
// in prefix-text order) and every FIB, and the engine may not rerun more
// decisions than the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/workflow.hpp"
#include "emulation/network.hpp"
#include "fuzz/scenario.hpp"
#include "partial_ibgp_mesh.hpp"
#include "reflected_next_hop.hpp"
#include "topology/builtin.hpp"

namespace autonet::emulation {

struct NetworkTestPeer {
  using RibIn = std::map<std::pair<std::string, std::uint32_t>, BgpRoute>;
  using Best = std::map<std::string, BgpRoute>;  // key: prefix text

  struct Reference {
    ConvergenceReport report;
    EmulationStats stats;  // bgp_sessions, bgp_withdrawals, decision_reruns
    std::vector<RibIn> rib_in;  // by router index
    std::vector<Best> best;     // by router index
  };

  /// What start(max_rounds) does, with the reference loop and FIB install
  /// in place of the engine's.
  static Reference start(EmulatedNetwork& net, std::size_t max_rounds) {
    net.index_addresses();
    net.build_segments();
    net.compute_ospf();
    Reference ref = run_bgp(net, max_rounds);
    install_bgp_routes(net, ref.best);
    return ref;
  }

  /// A router's index: what Reference's vectors are addressed by.
  static std::size_t index(const EmulatedNetwork& net, std::string_view name) {
    return net.by_name_.find(name)->second;
  }

  // The bodies below are the predecessor's, over local RIBs; the locals
  // keep the member names they had so the bodies read as they did.
  static Reference run_bgp(EmulatedNetwork& net, std::size_t max_rounds) {
    using addressing::Ipv4Addr;
    auto& routers_ = net.routers_;
    const auto& by_address_ = net.by_address_;
    const auto& direct_neighbors_ = net.direct_neighbors_;
    auto router_failed = [&net](std::size_t r) { return net.router_failed(r); };
    auto subnet_down = [&net](const addressing::Ipv4Prefix& p) {
      return net.subnet_down(p);
    };
    auto igp_metric_to = [&net](std::size_t r, Ipv4Addr addr) {
      return net.igp_metric_to(r, addr);
    };
    std::vector<BgpSession> sessions_;
    EmulationStats stats_;
    std::vector<RibIn> rib_in(routers_.size());
    std::vector<Best> best_of(routers_.size());
    auto result = [&](ConvergenceReport report) {
      return Reference{std::move(report), stats_, std::move(rib_in), std::move(best_of)};
    };

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
        rib_in[r][{prefix.to_string(), 0}] = route;
      }
    }

    // --- Decision process -------------------------------------------------
    auto better = [&](std::size_t r, const BgpRoute& a, const BgpRoute& b) {
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

    auto select_best = [&](std::size_t r) {
      std::map<std::string, BgpRoute> best;
      for (const auto& [key, route] : rib_in[r]) {
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
      bool changed = false;
      unsettled.clear();
      for (std::size_t r = 0; r < routers_.size(); ++r) {
        if (!routers_[r].config().bgp_enabled || router_failed(r)) continue;
        ++stats_.decision_reruns;
        auto best = select_best(r);
        if (best == best_of[r] && round > 1) continue;

        // Withdraw prefixes no longer selected.
        for (const auto& [prefix, old_route] : best_of[r]) {
          if (best.contains(prefix)) continue;
          for (std::size_t si : sessions_of[r]) {
            const BgpSession& s = sessions_[si];
            // At the peer, routes from us are keyed by our session address.
            rib_in[s.peer].erase({prefix, s.local_addr.value()});
            ++report.updates;
            ++stats_.bgp_withdrawals;
          }
          changed = true;
          unsettled.insert(r);
        }

        // Advertise (possibly re-advertise) the current selections.
        for (const auto& [prefix, route] : best) {
          const BgpRoute* previous = nullptr;
          auto prev_it = best_of[r].find(prefix);
          if (prev_it != best_of[r].end()) previous = &prev_it->second;
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
              rib_in[s.peer].erase(rib_key);
              continue;
            }
            // "^$" export policy: stub routers advertise only their own
            // prefixes (paper's Small-Internet lab marks AS200 this way).
            if (s.only_local_out && !route.local_originated) {
              rib_in[s.peer].erase(rib_key);
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
              rib_in[s.peer].erase(rib_key);
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
              rib_in[s.peer].erase(rib_key);
            } else {
              rib_in[s.peer][rib_key] = out;
            }
          }
        }
        best_of[r] = std::move(best);
      }

      if (!changed) {
        report.converged = true;
        report.rounds = round;
        return result(std::move(report));
      }

      // Oscillation detection: fingerprint the global selection state.
      std::string state;
      for (std::size_t r = 0; r < routers_.size(); ++r) {
        state += routers_[r].name() + "{";
        for (const auto& [prefix, route] : best_of[r]) {
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
        return result(std::move(report));
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
    report.timeout = std::move(timeout);
    return result(std::move(report));
  }

  static void install_bgp_routes(EmulatedNetwork& net, const std::vector<Best>& best_of) {
    using addressing::Ipv4Addr;
    auto& routers_ = net.routers_;
    const auto& by_address_ = net.by_address_;
    const auto& direct_neighbors_ = net.direct_neighbors_;
    for (std::size_t r = 0; r < routers_.size(); ++r) {
      VirtualRouter& router = routers_[r];
      auto& fib = router.mutable_fib();
      // Drop previously installed BGP routes (start() may be re-run).
      std::erase_if(fib, [](const FibEntry& e) {
        return e.source == RouteSource::kEbgp || e.source == RouteSource::kIbgp;
      });
      for (const auto& [prefix_str, route] : best_of[r]) {
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
};

}  // namespace autonet::emulation

namespace {

using namespace autonet;
using emulation::BgpRoute;
using emulation::ConvergenceReport;
using emulation::EmulatedNetwork;
using emulation::NetworkTestPeer;

std::string fib_text(const std::vector<emulation::FibEntry>& fib) {
  std::string out;
  for (const auto& e : fib) {
    out += e.prefix.to_string() + " " + std::to_string(static_cast<int>(e.source)) +
           " " + e.out_interface + " " +
           (e.next_hop ? e.next_hop->to_string() : std::string("-")) + " " +
           std::to_string(e.metric) + "\n";
  }
  return out;
}

/// Converges `fast` with start(k) and `slow` with the reference, then
/// compares everything the two leave behind. Returns the withdrawals.
std::uint64_t expect_same(EmulatedNetwork& fast, EmulatedNetwork& slow, std::size_t k,
                          const std::string& label) {
  SCOPED_TRACE(label);
  const emulation::EmulationStats before = fast.stats();
  const ConvergenceReport got = fast.start(k);
  const std::uint64_t withdrawals = fast.stats().bgp_withdrawals - before.bgp_withdrawals;
  const std::uint64_t reruns = fast.stats().decision_reruns - before.decision_reruns;
  const NetworkTestPeer::Reference ref = NetworkTestPeer::start(slow, k);
  const ConvergenceReport& want = ref.report;

  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.oscillating, want.oscillating);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.period, want.period);
  EXPECT_EQ(got.updates, want.updates);
  EXPECT_EQ(got.timeout.has_value(), want.timeout.has_value());
  if (got.timeout && want.timeout) {
    EXPECT_EQ(got.timeout->unsettled_routers, want.timeout->unsettled_routers);
  }
  EXPECT_EQ(withdrawals, ref.stats.bgp_withdrawals);
  EXPECT_EQ(fast.stats().bgp_sessions, ref.stats.bgp_sessions);
  EXPECT_LE(reruns, ref.stats.decision_reruns);

  const std::vector<std::string> names = fast.router_names();
  EXPECT_EQ(names, slow.router_names());
  for (const std::string& name : names) {
    const std::size_t r = NetworkTestPeer::index(slow, name);
    const emulation::VirtualRouter& a = *fast.router(name);
    const emulation::VirtualRouter& b = *slow.router(name);
    using Selections = std::vector<std::pair<std::string, BgpRoute>>;
    Selections best;
    for (const auto& [prefix, route] : a.bgp_best()) best.emplace_back(prefix, route);
    EXPECT_EQ(best, Selections(ref.best[r].begin(), ref.best[r].end())) << name;
    using Entries = std::vector<std::pair<std::pair<std::string, std::uint32_t>, BgpRoute>>;
    Entries rib_in;
    const emulation::BgpTables& tables = a.bgp();
    for (std::size_t k = 0; k < tables.rib_in.size(); ++k) {
      for (const auto& entry : tables.rib_in[k]) {
        rib_in.push_back({{(*tables.prefixes)[k], entry.from}, entry.route});
      }
    }
    EXPECT_EQ(rib_in, Entries(ref.rib_in[r].begin(), ref.rib_in[r].end())) << name;
    EXPECT_EQ(fib_text(a.fib()), fib_text(b.fib())) << name;
  }
  return withdrawals;
}

/// Two boots of one rendered network: the engine's and the reference's.
struct Boots {
  EmulatedNetwork fast;
  EmulatedNetwork slow;
};

Boots boot(const core::Workflow& wf) {
  return {EmulatedNetwork::from_nidb(wf.nidb(), wf.configs()),
          EmulatedNetwork::from_nidb(wf.nidb(), wf.configs())};
}

core::WorkflowOptions options(const std::string& platform, const std::string& ibgp) {
  core::WorkflowOptions opts;
  opts.platform = platform;
  opts.ibgp = ibgp;
  opts.lint.fail_fast = false;
  return opts;
}

/// 40 seeded fuzz scenarios (up to 20 routers) in one iBGP mode on one
/// platform.
void check_scenarios(const std::string& platform, const std::string& ibgp) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const fuzz::Scenario s = fuzz::generate_scenario(seed, 20);
    core::Workflow wf(options(platform, ibgp));
    wf.load(s.graph).design().compile().render();
    Boots b = boot(wf);
    expect_same(b.fast, b.slow, 64,
                platform + "/" + ibgp + " seed " + std::to_string(seed) + " (" +
                    s.summary + ")");
  }
}

TEST(BgpReference, FuzzScenariosNetkit) {
  check_scenarios("netkit", "mesh");
  check_scenarios("netkit", "rr");
}

TEST(BgpReference, FuzzScenariosDynagen) {
  check_scenarios("dynagen", "mesh");
  check_scenarios("dynagen", "rr");
}

TEST(BgpReference, PartialIbgpMeshWithdraws) {
  // y loses its only route and withdraws (partial_ibgp_mesh.hpp). nren
  // never withdraws: this input covers the withdraw path.
  const std::vector<emulation::RouterConfig> configs = fixtures::partial_ibgp_mesh();
  auto fast = EmulatedNetwork::from_router_configs(configs);
  auto slow = EmulatedNetwork::from_router_configs(configs);
  EXPECT_GT(expect_same(fast, slow, 128, "partial iBGP mesh"), 0u);
  EXPECT_TRUE(fast.last_report().converged);
  EXPECT_EQ(fast.router("y")->bgp_best().begin(), fast.router("y")->bgp_best().end());
}

TEST(BgpReference, ReflectedNextHopMovesAndResolvesAgain) {
  // a's route from c keeps its session and changes its next hop
  // (reflected_next_hop.hpp). Both boots take the same failure first.
  const std::vector<emulation::RouterConfig> configs = fixtures::reflected_next_hop_moves();
  const std::vector<std::pair<std::string, std::string>> links{
      {"a", "c"}, {"c", "e"}, {"c", "bd"}, {"e", "bd"}};
  for (const std::size_t k : {1, 2, 3, 128}) {
    for (std::size_t down = 0; down <= links.size(); ++down) {
      auto fast = EmulatedNetwork::from_router_configs(configs);
      auto slow = EmulatedNetwork::from_router_configs(configs);
      std::string label = "k=" + std::to_string(k);
      if (down < links.size()) {
        const auto& [x, y] = links[down];
        ASSERT_TRUE(fast.fail_link(x, y));
        ASSERT_TRUE(slow.fail_link(x, y));
        label += " " + x + "-" + y + " down";
      } else {
        label += " intact";
      }
      expect_same(fast, slow, k, label);
    }
  }
  auto network = EmulatedNetwork::from_router_configs(configs);
  EXPECT_TRUE(network.start().converged);
  const auto& fib = network.router("a")->fib();
  const auto prefix = *addressing::Ipv4Prefix::parse("198.51.100.0/24");
  const auto route = std::ranges::find(fib, prefix, &emulation::FibEntry::prefix);
  ASSERT_NE(route, fib.end());
  EXPECT_EQ(route->source, emulation::RouteSource::kIbgp);
  EXPECT_EQ(route->next_hop, addressing::Ipv4Addr::parse("10.1.0.2"));
}

TEST(BgpReference, BadGadgetOnEveryPlatformAndBudget) {
  for (const char* platform : {"netkit", "dynagen", "junosphere", "cbgp"}) {
    core::Workflow wf(options(platform, "rr"));
    wf.load(topology::bad_gadget()).design().compile().render();
    for (std::size_t k = 1; k <= 8; ++k) {
      Boots b = boot(wf);
      expect_same(b.fast, b.slow, k, std::string(platform) + " k=" + std::to_string(k));
    }
  }
}

TEST(BgpReference, MedChurn) {
  for (const char* platform : {"netkit", "dynagen", "junosphere", "cbgp"}) {
    core::Workflow wf(options(platform, "rr"));
    wf.load(topology::med_oscillation()).design().compile().render();
    Boots b = boot(wf);
    expect_same(b.fast, b.slow, 128, platform);
  }
}

TEST(BgpReference, SmallInternetFailuresAndRestores) {
  core::Workflow wf(options("netkit", "mesh"));
  wf.load(topology::small_internet()).design().compile().render();
  Boots b = boot(wf);
  expect_same(b.fast, b.slow, 128, "intact");
  // Both boots take the same failures; the engine reconverges the network
  // it already ran, the reference starts from its own previous run.
  auto both = [&b](const std::function<bool(EmulatedNetwork&)>& change) {
    ASSERT_TRUE(change(b.fast));
    ASSERT_TRUE(change(b.slow));
  };
  both([](EmulatedNetwork& n) { return n.fail_link("as20r2", "as100r1"); });
  expect_same(b.fast, b.slow, 128, "fail_link");
  both([](EmulatedNetwork& n) { return n.restore_link("as20r2", "as100r1"); });
  expect_same(b.fast, b.slow, 128, "restore_link");
  both([](EmulatedNetwork& n) { return n.fail_node("as300r1"); });
  expect_same(b.fast, b.slow, 128, "fail_node");
  both([](EmulatedNetwork& n) { return n.restore_node("as300r1"); });
  expect_same(b.fast, b.slow, 128, "restore_node");
}

}  // namespace
