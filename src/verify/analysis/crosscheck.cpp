#include "verify/analysis/crosscheck.hpp"

#include <algorithm>

#include "emulation/network.hpp"

namespace autonet::verify::analysis {

namespace {

std::string hop_text(addressing::Ipv4Addr addr, const std::string& router) {
  return addr.to_string() + " (" + router + ")";
}

}  // namespace

CrossCheckResult cross_check(const nidb::Nidb& nidb,
                             const render::ConfigTree& configs,
                             std::size_t max_bgp_rounds) {
  CrossCheckResult out;
  const Model model = Model::from_nidb(nidb);
  const Prediction prediction = predict(model, {}, max_bgp_rounds);

  emulation::EmulatedNetwork network =
      emulation::EmulatedNetwork::from_nidb(nidb, configs);
  network.start(max_bgp_rounds);

  // Compare the two layers' forwarding tables column by column. Pairs are
  // walked only in a column that differs, or in every column when the
  // layers hold different routers, so a divergence reads as before.
  const auto& routers = model.routers();
  const std::size_t n = model.size();
  std::vector<bool> differs(n, true);
  std::vector<std::string> names;
  for (const auto& router : routers) names.push_back(router.hostname);
  if (network.router_names() == names) {
    const PathTable predicted(model, prediction);
    std::vector<addressing::Ipv4Addr> targets;
    std::vector<std::size_t> columns;  // the router each target belongs to
    for (std::size_t d = 0; d < n; ++d) {
      // traceroute probes the emulated router's own trace target.
      if (const auto target = emulation::trace_target(network.router(names[d])->config())) {
        targets.push_back(*target);
        columns.push_back(d);
      }
    }
    network.forwarding_columns(
        targets, 30, [&](std::size_t k, const std::vector<emulation::ForwardingCell>& column) {
          const auto expected = predicted.column(columns[k]);
          differs[columns[k]] = !std::equal(column.begin(), column.end(), expected.begin());
        });
  }

  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      if (s == d) continue;
      ++out.pairs;
      if (!differs[d]) continue;
      const std::string& src = routers[s].hostname;
      const std::string& dst = routers[d].hostname;
      const Path predicted = trace_to_router(model, prediction, src, dst);
      emulation::TracerouteResult emulated;
      try {
        emulated = network.traceroute(src, dst);
      } catch (const std::exception& e) {
        out.divergences.push_back(
            {src, dst, std::string("emulated traceroute failed: ") + e.what()});
        continue;
      }
      if (predicted.reached != emulated.reached) {
        out.divergences.push_back(
            {src, dst,
             "reached: predicted " + std::string(predicted.reached ? "yes" : "no") +
                 ", emulated " + (emulated.reached ? "yes" : "no")});
        continue;
      }
      if (predicted.hops.size() != emulated.hops.size()) {
        out.divergences.push_back(
            {src, dst,
             "hop count: predicted " + std::to_string(predicted.hops.size()) +
                 ", emulated " + std::to_string(emulated.hops.size())});
        continue;
      }
      for (std::size_t i = 0; i < predicted.hops.size(); ++i) {
        const PathHop& p = predicted.hops[i];
        const emulation::TracerouteHop& e = emulated.hops[i];
        if (p.address != e.address || p.router != e.router) {
          out.divergences.push_back(
              {src, dst,
               "hop " + std::to_string(i + 1) + ": predicted " +
                   hop_text(p.address, p.router) + ", emulated " +
                   hop_text(e.address, e.router)});
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace autonet::verify::analysis
