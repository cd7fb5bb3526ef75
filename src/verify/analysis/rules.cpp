// The "analysis" rule family: semantic checks over predicted FIBs.
// Unlike the structural nidb/signaling/template families these rules
// reason about where traffic actually goes — all-pairs reachability,
// forwarding loops, blackholes, path asymmetry, and static k=1
// link-failure what-if. Registered via RuleRegistry::with_analysis(),
// not builtin(): they are opt-in (autonet analyze, or the workflow
// gate's `analysis` flag) because they judge outcomes, not config shape.
#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "verify/analysis/workspace.hpp"
#include "verify/rules.hpp"

namespace autonet::verify {
namespace {

using analysis::Link;
using analysis::Model;
using analysis::PathTable;
using analysis::Workspace;
using emulation::WalkEnd;

Rule analysis_rule(std::string id, std::string description, Severity severity,
                   std::function<void(const RuleContext&, Emitter&)> run) {
  Rule rule;
  rule.info.id = std::move(id);
  rule.info.category = "analysis";
  rule.info.default_severity = severity;
  rule.info.description = std::move(description);
  rule.info.origin = "analysis.fib";
  rule.run = std::move(run);
  rule.needs_nidb = true;
  return rule;
}

/// Joins up to `cap` items with ", ", appending "… (+N more)" past the cap.
std::string join_capped(const std::vector<std::string>& items, std::size_t cap) {
  std::string out;
  for (std::size_t i = 0; i < items.size() && i < cap; ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  if (items.size() > cap) {
    out += "… (+" + std::to_string(items.size() - cap) + " more)";
  }
  return out;
}

void check_unreachable(const RuleContext& ctx, Emitter& out) {
  const Workspace& ws = *ctx.analysis;
  const Model& model = ws.model();
  const PathTable& table = ws.baseline_table();
  const auto& routers = model.routers();
  for (std::size_t s = 0; s < model.size(); ++s) {
    std::vector<std::string> missing;
    for (std::size_t d = 0; d < model.size(); ++d) {
      if (s != d && table.dropped_at(s, d) == s) missing.push_back(routers[d].hostname);
    }
    if (missing.empty()) continue;
    out.emit(routers[s].hostname,
             "no predicted route to " + std::to_string(missing.size()) +
                 " router(s): " + join_capped(missing, 5),
             "fib");
  }
}

void check_blackhole(const RuleContext& ctx, Emitter& out) {
  const Workspace& ws = *ctx.analysis;
  const Model& model = ws.model();
  const PathTable& table = ws.baseline_table();
  const auto& routers = model.routers();

  // Transit drops: the source had a route, but a router along the
  // predicted path has none and silently discards the traffic.
  std::map<std::string, std::vector<std::string>> drops;
  for (std::size_t s = 0; s < model.size(); ++s) {
    for (std::size_t d = 0; d < model.size(); ++d) {
      const auto at = table.dropped_at(s, d);
      if (s == d || !at || *at == s) continue;
      drops[routers[*at].hostname].push_back(routers[s].hostname + "->" +
                                             routers[d].hostname);
    }
  }
  for (const auto& [dropper, pairs] : drops) {
    out.emit(dropper,
             "predicted blackhole: drops traffic for " +
                 std::to_string(pairs.size()) + " pair(s): " +
                 join_capped(pairs, 5),
             "fib");
  }

  // Origination blackholes: a router advertises a BGP prefix it has no
  // route into and owns no address under — attracted traffic dies here.
  auto prediction = ws.baseline();
  for (std::size_t r = 0; r < model.size(); ++r) {
    const auto& cfg = routers[r];
    for (const auto& advertised : cfg.bgp_networks) {
      bool owns = false;
      if (cfg.loopback && advertised.contains(cfg.loopback->address)) owns = true;
      for (const auto& iface : cfg.interfaces) {
        if (advertised.contains(iface.address.address)) owns = true;
      }
      if (owns) continue;
      bool routed = false;
      for (const auto& entry : prediction->fibs[r]) {
        if (advertised.contains(entry.prefix) ||
            entry.prefix.contains(advertised)) {
          routed = true;
          break;
        }
      }
      if (routed) continue;
      out.emit(cfg.hostname,
               "advertises " + advertised.to_string() +
                   " but has no route into it: attracted traffic is "
                   "blackholed",
               "bgp.networks");
    }
  }
}

void check_forwarding_loop(const RuleContext& ctx, Emitter& out) {
  const Workspace& ws = *ctx.analysis;
  const Model& model = ws.model();
  const PathTable& table = ws.baseline_table();
  const auto& routers = model.routers();
  // canonical cycle key -> (lead router, message)
  std::map<std::string, std::pair<std::string, std::string>> cycles;
  std::vector<std::size_t> sequence;
  for (std::size_t s = 0; s < model.size(); ++s) {
    for (std::size_t d = 0; d < model.size(); ++d) {
      if (s == d || table.cell(s, d).end != WalkEnd::kTtlExceeded) continue;
      table.routers(s, d, sequence);
      // First repeated router on the next-hop chain delimits the cycle.
      std::map<std::size_t, std::size_t> first_seen;
      std::vector<std::string> cycle;
      for (std::size_t i = 0; i < sequence.size(); ++i) {
        auto [it, inserted] = first_seen.emplace(sequence[i], i);
        if (inserted) continue;
        for (std::size_t k = it->second; k <= i; ++k) {
          cycle.push_back(routers[sequence[k]].hostname);
        }
        break;
      }
      if (cycle.empty()) continue;  // TTL ran out on a long simple path
      // Canonicalise: rotate so the smallest name leads, so the same
      // physical loop found from different pairs dedups to one finding.
      auto min_it = std::min_element(cycle.begin(), cycle.end() - 1);
      std::vector<std::string> canon(min_it, cycle.end() - 1);
      canon.insert(canon.end(), cycle.begin(), min_it);
      canon.push_back(canon.front());
      std::string key;
      std::string shown;
      for (const auto& hop : canon) {
        key += hop + "|";
        if (!shown.empty()) shown += " -> ";
        shown += hop;
      }
      cycles.emplace(key,
                     std::make_pair(canon.front(),
                                    "predicted forwarding loop " + shown +
                                        " (first seen tracing " +
                                        routers[s].hostname + " -> " +
                                        routers[d].hostname + ")"));
    }
  }
  for (const auto& [key, finding] : cycles) {
    (void)key;
    out.emit(finding.first, finding.second, "fib");
  }
}

void check_asymmetric(const RuleContext& ctx, Emitter& out) {
  const Workspace& ws = *ctx.analysis;
  const Model& model = ws.model();
  const PathTable& table = ws.baseline_table();
  const auto& routers = model.routers();
  const auto shown = [&routers](auto first, auto last) {
    std::string text;
    for (auto it = first; it != last; ++it) {
      if (!text.empty()) text += " -> ";
      text += routers[*it].hostname;
    }
    return text;
  };
  // One aggregated finding per source router (ITZ-scale models have
  // hundreds of thousands of asymmetric pairs; per-pair findings would
  // swamp the report), with the first pair spelled out as an example.
  std::vector<std::size_t> fwd;
  std::vector<std::size_t> rev;
  for (std::size_t s = 0; s < model.size(); ++s) {
    std::vector<std::string> peers;
    std::string example;
    for (std::size_t d = s + 1; d < model.size(); ++d) {
      if (!table.reached(s, d) || !table.reached(d, s)) continue;
      // Paths of different lengths differ; their routers are read only
      // for the source's example.
      if (table.cell(s, d).hops == table.cell(d, s).hops || example.empty()) {
        table.routers(s, d, fwd);
        table.routers(d, s, rev);
        if (std::equal(fwd.begin(), fwd.end(), rev.rbegin(), rev.rend())) continue;
      }
      peers.push_back(routers[d].hostname);
      if (example.empty()) {
        example = "e.g. forward " + shown(fwd.begin(), fwd.end()) + ", reverse " +
                  shown(rev.begin(), rev.end());
      }
    }
    if (peers.empty()) continue;
    out.emit(routers[s].hostname,
             "asymmetric predicted paths with " + std::to_string(peers.size()) +
                 " router(s): " + join_capped(peers, 5) + "; " + example,
             "fib");
  }
}

void check_whatif(const RuleContext& ctx, Emitter& out) {
  const Workspace& ws = *ctx.analysis;
  const Model& model = ws.model();
  const PathTable& baseline = ws.baseline_table();
  const auto& routers = model.routers();
  const std::vector<Link> links = model.links();
  if (links.empty()) return;

  // Pairs reachable in the intact design; only their loss is a finding.
  const auto reached = [&baseline](std::size_t s, std::size_t d) {
    return s != d && baseline.reached(s, d);
  };
  std::size_t reachable_pairs = 0;
  for (std::size_t s = 0; s < model.size(); ++s) {
    for (std::size_t d = 0; d < model.size(); ++d) reachable_pairs += reached(s, d) ? 1 : 0;
  }
  if (reachable_pairs == 0) return;

  // Enumeration bound: the sweep costs one re-prediction plus one
  // forwarding table per link, budgeted as |reachable| re-traces per
  // link, so ITZ-scale models (the 1158-router NREN generator) evaluate
  // no link. Links are enumerated in deterministic sorted order until the
  // trace budget is spent; past the budget the remaining links are not
  // evaluated. The bound is documented in docs/static_analysis.md. It is
  // checked on the pair count, so a sweep that evaluates no link never
  // lists the pairs.
  constexpr std::size_t kTraceBudget = 500'000;
  const std::size_t considered = std::min(links.size(), kTraceBudget / reachable_pairs);
  if (considered == 0) return;
  std::vector<std::pair<std::size_t, std::size_t>> reachable;
  reachable.reserve(reachable_pairs);
  for (std::size_t s = 0; s < model.size(); ++s) {
    for (std::size_t d = 0; d < model.size(); ++d) {
      if (reached(s, d)) reachable.emplace_back(s, d);
    }
  }

  // Evaluate scenarios on up to ctx.jobs threads (Workspace::whatif is
  // thread-safe), this one alone when that is 1. Each holds one
  // scenario's prediction and table at a time, so the job count also
  // bounds the sweep's memory. Results merge by scenario index, so the
  // emitted findings are deterministic regardless of scheduling.
  std::vector<std::vector<std::string>> lost(considered);
  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    while (true) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= considered) return;
      const PathTable table(model, *ws.whatif({links[i].subnet}));
      for (const auto& [s, d] : reachable) {
        if (!table.reached(s, d)) {
          lost[i].push_back(routers[s].hostname + "->" + routers[d].hostname);
        }
      }
    }
  };
  const std::size_t workers = std::min(ctx.jobs, considered);
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }

  for (std::size_t i = 0; i < considered; ++i) {
    if (lost[i].empty()) continue;
    out.emit(links[i].a,
             "failure of link " + links[i].a + "<->" + links[i].b + " (" +
                 links[i].subnet.to_string() + ") loses predicted "
                 "reachability for " + std::to_string(lost[i].size()) +
                 " pair(s): " + join_capped(lost[i], 5),
             links[i].subnet.to_string());
  }
}

}  // namespace

void register_analysis_rules(RuleRegistry& registry) {
  {
    Rule rule = analysis_rule(
        "predicted-unreachable",
        "Router has no predicted route to another router's loopback",
        Severity::kError, check_unreachable);
    rule.info.origin = "analysis.reachability";
    registry.add(std::move(rule));
  }
  registry.add(analysis_rule(
      "predicted-blackhole",
      "Predicted FIBs drop traffic in transit or attract traffic into a "
      "prefix with no underlying route",
      Severity::kError, check_blackhole));
  registry.add(analysis_rule(
      "forwarding-loop",
      "Predicted FIBs forward traffic in a cycle (TTL exhaustion)",
      Severity::kError, check_forwarding_loop));
  {
    Rule rule = analysis_rule(
        "asymmetric-path",
        "Forward and reverse predicted paths between two routers differ",
        Severity::kWarning, check_asymmetric);
    rule.info.origin = "analysis.path";
    registry.add(std::move(rule));
  }
  {
    Rule rule = analysis_rule(
        "whatif-link-failure",
        "Single-link failure loses predicted reachability for some pair",
        Severity::kWarning, check_whatif);
    rule.info.origin = "analysis.whatif";
    registry.add(std::move(rule));
  }
}

}  // namespace autonet::verify
