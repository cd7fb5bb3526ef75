// The static control/data-plane verifier: the symbolic model lifted
// from the NIDB, offline FIB prediction, the analysis rule family
// (reachability, loops, blackholes, asymmetry, what-if), the prediction
// cache, and the emulation cross-check oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/workflow.hpp"
#include "emulation/network.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "topology/builtin.hpp"
#include "verify/analysis/cache.hpp"
#include "verify/analysis/crosscheck.hpp"
#include "verify/analysis/model.hpp"
#include "verify/analysis/workspace.hpp"
#include "verify/rules.hpp"

namespace {

using namespace autonet;
using verify::Severity;
using verify::analysis::FibCache;
using verify::analysis::Model;
using verify::analysis::Path;
using verify::analysis::PathTable;
using verify::analysis::Prediction;
using verify::analysis::Workspace;

nidb::Nidb compiled(const graph::Graph& input, const char* ibgp = "mesh") {
  core::WorkflowOptions opts;
  opts.ibgp = ibgp;
  core::Workflow wf(opts);
  wf.load(input).design().compile();
  return compiler::platform_compiler_for("netkit").compile(wf.anm());
}

const verify::Finding* find_code(const verify::Report& report,
                                 std::string_view code,
                                 std::string_view device = "") {
  for (const auto& f : report.findings) {
    if (f.code != code) continue;
    if (!device.empty() && f.device != device) continue;
    return &f;
  }
  return nullptr;
}

// --- Hand-built fixtures ----------------------------------------------------

nidb::DeviceRecord& add_router(nidb::Nidb& nidb, const std::string& name,
                               const std::string& loopback) {
  auto& rec = nidb.add_device(name);
  rec.data["device_type"] = "router";
  rec.data["hostname"] = name;
  rec.data["loopback"] = loopback + "/32";
  return rec;
}

void add_iface(nidb::DeviceRecord& rec, const std::string& id,
               const std::string& ip, std::int64_t prefixlen,
               const std::string& subnet, std::int64_t cost = 1) {
  nidb::Object iface;
  iface["id"] = id;
  iface["ip_address"] = ip;
  iface["prefixlen"] = prefixlen;
  iface["subnet"] = subnet;
  iface["ospf_cost"] = cost;
  rec.data["interfaces"].array().emplace_back(std::move(iface));
}

void add_ospf(nidb::DeviceRecord& rec, const std::string& network,
              std::int64_t area = 0) {
  nidb::Object link;
  link["network"] = network;
  link["area"] = area;
  rec.data["ospf"]["ospf_links"].array().emplace_back(std::move(link));
}

void enable_bgp(nidb::DeviceRecord& rec, std::int64_t asn) {
  rec.data["asn"] = asn;
  rec.data["bgp"]["asn"] = asn;
}

void add_bgp_network(nidb::DeviceRecord& rec, const std::string& prefix) {
  rec.data["bgp"]["networks"].array().emplace_back(prefix);
}

void add_ibgp(nidb::DeviceRecord& rec, const std::string& neighbor,
              std::int64_t remote_as, bool next_hop_self = false) {
  nidb::Object n;
  n["neighbor"] = neighbor;
  n["remote_as"] = remote_as;
  n["update_source"] = "lo0";
  if (next_hop_self) n["next_hop_self"] = true;
  rec.data["bgp"]["ibgp_neighbors"].array().emplace_back(std::move(n));
}

void add_ebgp(nidb::DeviceRecord& rec, const std::string& neighbor,
              std::int64_t remote_as) {
  nidb::Object n;
  n["neighbor"] = neighbor;
  n["remote_as"] = remote_as;
  rec.data["bgp"]["ebgp_neighbors"].array().emplace_back(std::move(n));
}

/// Two OSPF islands with no link between them: a1-a2 and b1-b2.
nidb::Nidb partitioned_fixture() {
  nidb::Nidb nidb;
  auto& a1 = add_router(nidb, "a1", "10.0.0.1");
  auto& a2 = add_router(nidb, "a2", "10.0.0.2");
  auto& b1 = add_router(nidb, "b1", "10.0.0.3");
  auto& b2 = add_router(nidb, "b2", "10.0.0.4");
  add_iface(a1, "eth0", "10.1.0.1", 30, "10.1.0.0/30");
  add_iface(a2, "eth0", "10.1.0.2", 30, "10.1.0.0/30");
  add_iface(b1, "eth0", "10.1.1.1", 30, "10.1.1.0/30");
  add_iface(b2, "eth0", "10.1.1.2", 30, "10.1.1.0/30");
  for (auto* rec : {&a1, &a2, &b1, &b2}) add_ospf(*rec, "10.0.0.0/8");
  return nidb;
}

/// a-b run OSPF + iBGP; b additionally advertises a prefix it neither
/// owns nor has any route into.
nidb::Nidb blackhole_fixture() {
  nidb::Nidb nidb;
  auto& a = add_router(nidb, "a", "10.0.0.1");
  auto& b = add_router(nidb, "b", "10.0.0.2");
  add_iface(a, "eth0", "10.1.0.1", 30, "10.1.0.0/30");
  add_iface(b, "eth0", "10.1.0.2", 30, "10.1.0.0/30");
  add_ospf(a, "10.0.0.0/8");
  add_ospf(b, "10.0.0.0/8");
  enable_bgp(a, 100);
  enable_bgp(b, 100);
  add_ibgp(a, "10.0.0.2", 100);
  add_ibgp(b, "10.0.0.1", 100);
  add_bgp_network(b, "203.0.113.0/24");
  return nidb;
}

/// AS 100 chain b1 -10- c1 -1- c2 -1- b2; both borders eBGP-learn the
/// prefix behind router x. c1 breaks iBGP ties by IGP distance (nearest
/// exit = b2), c2 by peer address (lowest = b1): their FIBs point at
/// each other for x's prefix — a predicted forwarding loop.
nidb::Nidb loop_fixture() {
  nidb::Nidb nidb;
  auto& b1 = add_router(nidb, "b1", "10.0.0.1");
  auto& c1 = add_router(nidb, "c1", "10.0.0.2");
  auto& c2 = add_router(nidb, "c2", "10.0.0.3");
  auto& b2 = add_router(nidb, "b2", "10.0.0.4");
  auto& x = add_router(nidb, "x", "203.0.113.1");
  add_iface(b1, "eth0", "10.1.0.1", 30, "10.1.0.0/30", 10);
  add_iface(c1, "eth0", "10.1.0.2", 30, "10.1.0.0/30", 10);
  add_iface(c1, "eth1", "10.1.1.1", 30, "10.1.1.0/30");
  add_iface(c2, "eth0", "10.1.1.2", 30, "10.1.1.0/30");
  add_iface(c2, "eth1", "10.1.2.1", 30, "10.1.2.0/30");
  add_iface(b2, "eth0", "10.1.2.2", 30, "10.1.2.0/30");
  add_iface(b1, "eth1", "10.2.0.1", 30, "10.2.0.0/30");  // eBGP link to x
  add_iface(b2, "eth1", "10.2.1.1", 30, "10.2.1.0/30");  // (outside OSPF)
  add_iface(x, "eth0", "10.2.0.2", 30, "10.2.0.0/30");
  add_iface(x, "eth1", "10.2.1.2", 30, "10.2.1.0/30");
  for (auto* rec : {&b1, &c1, &c2, &b2}) {
    add_ospf(*rec, "10.0.0.0/16");
    add_ospf(*rec, "10.1.0.0/16");
    enable_bgp(*rec, 100);
  }
  const char* names[] = {"b1", "c1", "c2", "b2"};
  const char* loopbacks[] = {"10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"};
  for (auto* rec : {&b1, &c1, &c2, &b2}) {
    const std::string self = *rec->data.find("hostname")->as_string();
    for (int i = 0; i < 4; ++i) {
      if (names[i] == self) continue;
      add_ibgp(*rec, loopbacks[i], 100, /*next_hop_self=*/true);
    }
  }
  // Vendor default is igp_tiebreak=true (compiled NIDBs always carry the
  // key); only c1 breaks ties by IGP distance here.
  for (auto* rec : {&b1, &c2, &b2, &x}) {
    rec->data["bgp"]["igp_tiebreak"] = false;
  }
  c1.data["bgp"]["igp_tiebreak"] = true;
  enable_bgp(x, 200);
  add_bgp_network(x, "203.0.113.0/24");
  add_ebgp(b1, "10.2.0.2", 200);
  add_ebgp(b2, "10.2.1.2", 200);
  add_ebgp(x, "10.2.0.1", 100);
  add_ebgp(x, "10.2.1.1", 100);
  return nidb;
}

/// Triangle with an asymmetric cost on the a-b link: a reaches b via c,
/// b answers directly.
nidb::Nidb asymmetric_fixture() {
  nidb::Nidb nidb;
  auto& a = add_router(nidb, "a", "10.0.0.1");
  auto& b = add_router(nidb, "b", "10.0.0.2");
  auto& c = add_router(nidb, "c", "10.0.0.3");
  add_iface(a, "eth0", "10.1.0.1", 30, "10.1.0.0/30", 10);  // a -> b costs 10
  add_iface(b, "eth0", "10.1.0.2", 30, "10.1.0.0/30", 1);   // b -> a costs 1
  add_iface(a, "eth1", "10.1.1.1", 30, "10.1.1.0/30");
  add_iface(c, "eth0", "10.1.1.2", 30, "10.1.1.0/30");
  add_iface(c, "eth1", "10.1.2.1", 30, "10.1.2.0/30");
  add_iface(b, "eth1", "10.1.2.2", 30, "10.1.2.0/30");
  for (auto* rec : {&a, &b, &c}) add_ospf(*rec, "10.0.0.0/8");
  return nidb;
}

/// OSPF chain a - b - c: either link is a single point of failure.
nidb::Nidb chain_fixture() {
  nidb::Nidb nidb;
  auto& a = add_router(nidb, "a", "10.0.0.1");
  auto& b = add_router(nidb, "b", "10.0.0.2");
  auto& c = add_router(nidb, "c", "10.0.0.3");
  add_iface(a, "eth0", "10.1.0.1", 30, "10.1.0.0/30");
  add_iface(b, "eth0", "10.1.0.2", 30, "10.1.0.0/30");
  add_iface(b, "eth1", "10.1.1.1", 30, "10.1.1.0/30");
  add_iface(c, "eth0", "10.1.1.2", 30, "10.1.1.0/30");
  for (auto* rec : {&a, &b, &c}) add_ospf(*rec, "10.0.0.0/8");
  return nidb;
}

/// A path as text: verdict, drop router and every hop.
std::string path_text(const Path& path) {
  std::string text = std::string(path.reached ? "reached" : "") +
                     (path.looped ? "looped" : "") + "|" + path.dropped_at + "|";
  for (const auto& hop : path.hops) text += " " + hop.router + "@" + hop.address.to_string();
  return text;
}

/// The prediction's table, after checking that every pair reads back
/// the Path trace_to_router() walks.
PathTable checked_table(const Model& model, const Prediction& prediction) {
  PathTable table(model, prediction);
  const auto& routers = model.routers();
  for (std::size_t s = 0; s < model.size(); ++s) {
    for (std::size_t d = 0; d < model.size(); ++d) {
      if (s == d) continue;
      EXPECT_EQ(path_text(table.path(model, s, d)),
                path_text(verify::analysis::trace_to_router(
                    model, prediction, routers[s].hostname, routers[d].hostname)))
          << routers[s].hostname << " -> " << routers[d].hostname;
    }
  }
  return table;
}

/// The route router `r` holds for exactly `prefix`.
emulation::FibEntry* route_for(Prediction& prediction, const Model& model,
                               const char* router, const char* prefix) {
  auto& fib = prediction.fibs[*model.index_of(router)];
  const auto want = *addressing::Ipv4Prefix::parse(prefix);
  const auto it = std::find_if(fib.begin(), fib.end(),
                               [&](const emulation::FibEntry& e) { return e.prefix == want; });
  return it == fib.end() ? nullptr : &*it;
}

verify::Report analyze(const nidb::Nidb& nidb, verify::LintOptions opts = {}) {
  verify::LintInput input;
  input.nidb = &nidb;
  return verify::run_lint(input, opts, verify::RuleRegistry::with_analysis());
}

// --- The symbolic model -----------------------------------------------------

TEST(AnalysisModel, LiftsCompiledNidb) {
  auto nidb = compiled(topology::figure5());
  Model model = Model::from_nidb(nidb);
  EXPECT_EQ(model.size(), 5u);
  ASSERT_NE(model.router("r1"), nullptr);
  EXPECT_TRUE(model.router("r1")->ospf_enabled);
  EXPECT_EQ(model.router("none"), nullptr);
  EXPECT_FALSE(model.links().empty());
  for (const auto& link : model.links()) {
    EXPECT_LT(link.a, link.b);
    EXPECT_GE(link.members.size(), 2u);
  }
  const auto& r1 = *model.router("r1");
  ASSERT_TRUE(r1.loopback.has_value());
  EXPECT_EQ(model.owner_of(r1.loopback->address), "r1");
}

TEST(AnalysisModel, PredictsFullReachabilityOnCleanDesign) {
  auto nidb = compiled(topology::figure5());
  Workspace ws(nidb);
  const auto& paths = ws.baseline_paths();
  const auto& routers = ws.model().routers();
  for (std::size_t s = 0; s < routers.size(); ++s) {
    for (std::size_t d = 0; d < routers.size(); ++d) {
      if (s == d) continue;
      EXPECT_TRUE(paths[s][d].reached)
          << routers[s].hostname << " -> " << routers[d].hostname;
    }
  }
}

// --- The analysis rule family ----------------------------------------------

TEST(AnalysisRules, Catalogue) {
  const auto& registry = verify::RuleRegistry::with_analysis();
  EXPECT_EQ(registry.rules().size(), 21u);
  for (const char* id :
       {"predicted-unreachable", "predicted-blackhole", "forwarding-loop",
        "asymmetric-path", "whatif-link-failure"}) {
    const auto* rule = registry.find(id);
    ASSERT_NE(rule, nullptr) << id;
    EXPECT_EQ(rule->info.category, "analysis") << id;
    EXPECT_TRUE(rule->needs_nidb) << id;
  }
  // The semantic family stays out of builtin(): judging forwarding
  // outcomes is opt-in.
  EXPECT_EQ(verify::RuleRegistry::builtin().find("forwarding-loop"), nullptr);
}

TEST(AnalysisRules, CleanTopologyHasNoErrors) {
  auto report = analyze(compiled(topology::figure5()));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(AnalysisRules, DetectsPartition) {
  auto report = analyze(partitioned_fixture());
  const auto* f = find_code(report, "predicted-unreachable", "a1");
  ASSERT_NE(f, nullptr) << report.to_string();
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_NE(f->message.find("b1"), std::string::npos);
  // Both islands complain about the other.
  EXPECT_NE(find_code(report, "predicted-unreachable", "b1"), nullptr);
}

TEST(AnalysisRules, DetectsOriginationBlackhole) {
  auto report = analyze(blackhole_fixture());
  const auto* f = find_code(report, "predicted-blackhole", "b");
  ASSERT_NE(f, nullptr) << report.to_string();
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->path, "bgp.networks");
  EXPECT_NE(f->message.find("203.0.113.0/24"), std::string::npos);
}

TEST(AnalysisRules, DetectsForwardingLoop) {
  auto report = analyze(loop_fixture());
  const auto* f = find_code(report, "forwarding-loop");
  ASSERT_NE(f, nullptr) << report.to_string();
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_NE(f->message.find("c1"), std::string::npos);
  EXPECT_NE(f->message.find("c2"), std::string::npos);
}

TEST(AnalysisRules, DetectsAsymmetricPaths) {
  auto report = analyze(asymmetric_fixture());
  const auto* f = find_code(report, "asymmetric-path", "a");
  ASSERT_NE(f, nullptr) << report.to_string();
  EXPECT_EQ(f->severity, Severity::kWarning);
  EXPECT_NE(f->message.find("b"), std::string::npos);
}

TEST(AnalysisRules, WhatifFindsSinglePointsOfFailure) {
  auto report = analyze(chain_fixture());
  const auto* f = find_code(report, "whatif-link-failure");
  ASSERT_NE(f, nullptr) << report.to_string();
  EXPECT_EQ(f->severity, Severity::kWarning);
  // Both chain links are single points of failure.
  std::size_t hits = 0;
  for (const auto& finding : report.findings) {
    if (finding.code == "whatif-link-failure") ++hits;
  }
  EXPECT_EQ(hits, 2u);
}

TEST(AnalysisRules, RunsWithoutBootingEmulation) {
  FibCache::global().clear();  // force fresh builds, not cross-test hits
  obs::Registry reg;
  obs::RegistryScope scope(reg);
  auto report = analyze(chain_fixture());
  ASSERT_NE(find_code(report, "whatif-link-failure"), nullptr);
  // The what-if sweep ran (observable via the analysis counters)...
  EXPECT_GT(reg.counter("analysis.whatif_scenarios").value(), 0u);
  EXPECT_GT(reg.counter("analysis.fib_builds").value(), 0u);
  // ... and no emulation was started: its telemetry is entirely absent.
  EXPECT_EQ(obs::to_prometheus(reg).find("emulation"), std::string::npos);
}

TEST(AnalysisRules, PublishesDecisionRerunsNextToBgpRounds) {
  // After round 1, a router reruns the BGP decision only where its
  // Adj-RIB-In changed: small-internet's 14 BGP routers converge in 5
  // rounds with 53 reruns, not the 70 of deciding everywhere every round.
  auto nidb = compiled(topology::small_internet());
  const Model model = Model::from_nidb(nidb);
  const Prediction prediction = verify::analysis::predict(model);
  const auto bgp_routers = static_cast<std::size_t>(std::ranges::count_if(
      model.routers(), [](const auto& cfg) { return cfg.bgp_enabled; }));
  EXPECT_EQ(bgp_routers, 14u);
  EXPECT_EQ(prediction.bgp_rounds, 5u);
  EXPECT_EQ(prediction.decision_reruns, 53u);

  FibCache::global().clear();  // force fresh builds, not cross-test hits
  obs::Registry reg;
  obs::RegistryScope scope(reg);
  (void)analyze(nidb);
  EXPECT_EQ(reg.counter("analysis.fib_builds").value(),
            1 + reg.counter("analysis.whatif_scenarios").value());
  EXPECT_GE(reg.counter("analysis.decision_reruns").value(), prediction.decision_reruns);
  EXPECT_GT(reg.counter("analysis.bgp_rounds").value(), 0u);
}

TEST(AnalysisRules, ReportIsDeterministicAcrossWorkerCounts) {
  auto nidb = loop_fixture();
  std::string baseline;
  for (std::size_t jobs : {1u, 2u, 8u, 8u}) {
    verify::LintOptions opts;
    opts.jobs = jobs;
    auto report = analyze(nidb, opts);
    auto text = report.to_string() +
                verify::to_sarif(report, verify::RuleRegistry::with_analysis());
    if (baseline.empty()) {
      baseline = text;
    } else {
      EXPECT_EQ(text, baseline) << "jobs=" << jobs;
    }
  }
}

TEST(AnalysisRules, IdenticalFindingsCollapse) {
  verify::RuleRegistry registry;
  verify::Rule rule;
  rule.info.id = "dup-emitter";
  rule.run = [](const verify::RuleContext&, verify::Emitter& out) {
    out.emit("dev", "same finding", "path");
    out.emit("dev", "same finding", "path");
  };
  registry.add(std::move(rule));
  auto report = verify::run_lint({}, {}, registry);
  EXPECT_EQ(report.findings.size(), 1u);
}

// --- Prediction + trace semantics ------------------------------------------

TEST(AnalysisTrace, TransitBlackholeDropsAtAdvertiser) {
  auto nidb = blackhole_fixture();
  Workspace ws(nidb);
  auto dst = addressing::Ipv4Addr::parse("203.0.113.9");
  ASSERT_TRUE(dst.has_value());
  Path path = verify::analysis::trace(ws.model(), *ws.baseline(), "a", *dst);
  EXPECT_FALSE(path.reached);
  EXPECT_FALSE(path.looped);
  // a holds the iBGP route and forwards to b; b has nowhere to send it.
  EXPECT_EQ(path.dropped_at, "b");
}

TEST(AnalysisTrace, WhatifLinkFailurePartitionsChain) {
  auto nidb = chain_fixture();
  Workspace ws(nidb);
  ASSERT_TRUE(verify::analysis::trace_to_router(ws.model(), *ws.baseline(),
                                                "a", "c")
                  .reached);
  auto cut = addressing::Ipv4Prefix::parse("10.1.0.0/30");
  ASSERT_TRUE(cut.has_value());
  auto prediction = ws.whatif({*cut});
  EXPECT_FALSE(
      verify::analysis::trace_to_router(ws.model(), *prediction, "a", "c")
          .reached);
  EXPECT_TRUE(
      verify::analysis::trace_to_router(ws.model(), *prediction, "b", "c")
          .reached);
  EXPECT_GE(ws.stats().whatif_scenarios, 1u);
}

// --- The all-pairs table against trace_to_router() -------------------------

TEST(AnalysisTable, EqualsTraceOnEveryPair) {
  for (const nidb::Nidb& nidb : {compiled(topology::small_internet()), loop_fixture(),
                                 blackhole_fixture(), partitioned_fixture()}) {
    const Model model = Model::from_nidb(nidb);
    (void)checked_table(model, verify::analysis::predict(model));
  }
}

TEST(AnalysisTable, LoopbackLessDestinationFallsBackToFirstInterface) {
  nidb::Nidb nidb = chain_fixture();
  nidb::Nidb bare;
  for (const char* name : {"a", "b"}) bare.add_device(name).data = nidb.device(name)->data;
  auto& c = bare.add_device("c");
  c.data["device_type"] = "router";
  c.data["hostname"] = "c";
  add_iface(c, "eth0", "10.1.1.2", 30, "10.1.1.0/30");
  add_ospf(c, "10.0.0.0/8");
  const Model model = Model::from_nidb(bare);
  ASSERT_FALSE(model.router("c")->loopback.has_value());
  const PathTable table = checked_table(model, verify::analysis::predict(model));
  const std::size_t a = *model.index_of("a");
  const std::size_t cc = *model.index_of("c");
  EXPECT_TRUE(table.reached(a, cc));
  EXPECT_EQ(table.path(model, a, cc).hops.back().address.to_string(), "10.1.1.2");
}

TEST(AnalysisTable, UnownedNextHopDropsAtTheCurrentRouter) {
  const nidb::Nidb nidb = chain_fixture();
  const Model model = Model::from_nidb(nidb);
  Prediction prediction = verify::analysis::predict(model);
  auto* route = route_for(prediction, model, "b", "10.0.0.3/32");
  ASSERT_NE(route, nullptr);
  route->next_hop = *addressing::Ipv4Addr::parse("192.0.2.1");
  const PathTable table = checked_table(model, prediction);
  EXPECT_EQ(table.dropped_at(*model.index_of("a"), *model.index_of("c")), model.index_of("b"));
  EXPECT_EQ(table.dropped_at(*model.index_of("b"), *model.index_of("c")), model.index_of("b"));
}

TEST(AnalysisTable, TwoRouterCycleIsLooped) {
  const nidb::Nidb nidb = loop_fixture();
  const Model model = Model::from_nidb(nidb);
  const PathTable table = checked_table(model, verify::analysis::predict(model));
  const Path path = table.path(model, *model.index_of("c1"), *model.index_of("x"));
  EXPECT_TRUE(path.looped);
  EXPECT_EQ(path.hops.size(), 30u);
}

TEST(AnalysisTable, DuplicatePrefixTakesAdminDistanceThenMetric) {
  const nidb::Nidb nidb = chain_fixture();
  const Model model = Model::from_nidb(nidb);
  Prediction prediction = verify::analysis::predict(model);
  auto* route = route_for(prediction, model, "a", "10.0.0.3/32");
  ASSERT_NE(route, nullptr);
  emulation::FibEntry worse = *route;  // iBGP: higher admin distance
  worse.source = emulation::RouteSource::kIbgp;
  worse.metric = 0;
  worse.next_hop = *addressing::Ipv4Addr::parse("192.0.2.1");
  emulation::FibEntry better = *route;  // same distance, lower metric
  better.metric = route->metric - 1;
  better.next_hop = *addressing::Ipv4Addr::parse("192.0.2.2");
  auto& fib = prediction.fibs[*model.index_of("a")];
  fib.insert(fib.begin(), worse);
  fib.push_back(better);
  const PathTable table = checked_table(model, prediction);
  EXPECT_EQ(table.dropped_at(*model.index_of("a"), *model.index_of("c")), model.index_of("a"));
  fib.pop_back();
  EXPECT_TRUE(checked_table(model, prediction).reached(*model.index_of("a"), *model.index_of("c")));
}

// --- The prediction cache ---------------------------------------------------

TEST(AnalysisCache, SecondWorkspaceHitsCache) {
  FibCache::global().clear();
  auto nidb = chain_fixture();
  Workspace first(nidb);
  (void)first.baseline();
  EXPECT_EQ(first.stats().fib_builds, 1u);
  EXPECT_EQ(first.stats().fib_cache_hits, 0u);
  Workspace second(nidb);
  (void)second.baseline();
  EXPECT_EQ(second.stats().fib_builds, 0u);
  EXPECT_EQ(second.stats().fib_cache_hits, 1u);
}

TEST(AnalysisCache, ContentHashTracksNidbChanges) {
  auto nidb = chain_fixture();
  const auto base = verify::analysis::nidb_content_hash(nidb);
  EXPECT_EQ(verify::analysis::nidb_content_hash(nidb), base);
  nidb.device("a")->data["hostname"] = "renamed";
  EXPECT_NE(verify::analysis::nidb_content_hash(nidb), base);
  auto cut = addressing::Ipv4Prefix::parse("10.1.0.0/30");
  EXPECT_NE(verify::analysis::whatif_key(base, {*cut}), base);
  EXPECT_NE(verify::analysis::whatif_key(base, {*cut}),
            verify::analysis::whatif_key(base, {}));
}

// --- Differential oracle ----------------------------------------------------

TEST(AnalysisCrossCheck, MatchesEmulationOnMultiAreaOspf) {
  // Three OSPF areas in one AS: a1/a2 in area 1, b1/b2 in backbone,
  // c1/c2 in area 2, ABRs at the area boundaries, with asymmetric costs
  // so inter-area routing has real path choices to get wrong.
  graph::Graph g(false, "multiarea-crosscheck");
  auto add = [&g](const std::string& name, std::int64_t area) {
    graph::NodeId n = g.add_node(name);
    g.set_node_attr(n, "asn", 1);
    g.set_node_attr(n, "device_type", "router");
    g.set_node_attr(n, "ospf_area", area);
    return n;
  };
  auto a1 = add("a1", 1), a2 = add("a2", 1);
  auto b1 = add("b1", 0), b2 = add("b2", 0);
  auto c1 = add("c1", 2), c2 = add("c2", 2);
  g.add_edge(a1, a2);
  g.set_edge_attr(g.add_edge(a2, b1), "ospf_cost", 5);
  g.set_edge_attr(g.add_edge(b1, b2), "ospf_cost", 2);
  g.add_edge(b2, c1);
  g.add_edge(c1, c2);
  // A second backbone attachment for area 1, so intra-backbone path
  // selection matters for a1 -> c2 traffic.
  g.set_edge_attr(g.add_edge(a2, b2), "ospf_cost", 20);

  core::Workflow wf;
  wf.load(g).design().compile().render();
  auto result = verify::analysis::cross_check(wf.nidb(), wf.configs());
  EXPECT_EQ(result.pairs, 30u);  // 6 routers, ordered pairs
  EXPECT_TRUE(result.clean()) << result.divergences.size()
                              << " divergences, first: "
                              << (result.divergences.empty()
                                      ? ""
                                      : result.divergences[0].src + "->" +
                                            result.divergences[0].dst + ": " +
                                            result.divergences[0].detail);
}

TEST(AnalysisCrossCheck, MatchesEmulationOnFigure5) {
  core::Workflow wf;
  wf.load(topology::figure5()).design().compile().render();
  auto result = verify::analysis::cross_check(wf.nidb(), wf.configs());
  EXPECT_EQ(result.pairs, 20u);
  EXPECT_TRUE(result.clean()) << result.divergences.size() << " divergences, first: "
                              << (result.divergences.empty()
                                      ? ""
                                      : result.divergences[0].detail);
}

TEST(AnalysisCrossCheck, TtlRunsOutOnLongChainInBothWalks) {
  // A 35-router single-AS chain c0 - c1 - ... - c34: paths longer than
  // the 30-hop TTL end unreached in the emulation and the predictor
  // alike, and a path of exactly 30 hops is still reached.
  graph::Graph g(false, "chain35");
  std::vector<graph::NodeId> chain;
  for (int i = 0; i < 35; ++i) {
    graph::NodeId n = g.add_node("c" + std::to_string(i));
    g.set_node_attr(n, "asn", 1);
    g.set_node_attr(n, "device_type", "router");
    if (!chain.empty()) g.add_edge(chain.back(), n);
    chain.push_back(n);
  }
  core::Workflow wf;
  wf.load(g).design().compile().render();
  auto result = verify::analysis::cross_check(wf.nidb(), wf.configs());
  EXPECT_EQ(result.pairs, 1190u);  // 35 routers, ordered pairs
  EXPECT_TRUE(result.clean()) << result.divergences.size()
                              << " divergences, first: "
                              << (result.divergences.empty()
                                      ? ""
                                      : result.divergences[0].src + "->" +
                                            result.divergences[0].dst + ": " +
                                            result.divergences[0].detail);

  const Model model = Model::from_nidb(wf.nidb());
  const auto prediction = verify::analysis::predict(model);
  auto network = emulation::EmulatedNetwork::from_nidb(wf.nidb(), wf.configs());
  network.start();

  const Path far = verify::analysis::trace_to_router(model, prediction, "c0", "c34");
  EXPECT_FALSE(far.reached);
  EXPECT_TRUE(far.looped);
  EXPECT_TRUE(far.dropped_at.empty());
  EXPECT_EQ(far.hops.size(), 30u);
  const auto far_emulated = network.traceroute("c0", "c34");
  EXPECT_FALSE(far_emulated.reached);
  EXPECT_EQ(far_emulated.hops.size(), 30u);

  const Path near = verify::analysis::trace_to_router(model, prediction, "c0", "c30");
  EXPECT_TRUE(near.reached);
  EXPECT_EQ(near.hops.size(), 30u);
  const auto near_emulated = network.traceroute("c0", "c30");
  EXPECT_TRUE(near_emulated.reached);
  EXPECT_EQ(near_emulated.hops.size(), 30u);

  // The table: 30 hops is reached, 31 is not.
  const PathTable table = checked_table(model, prediction);
  EXPECT_TRUE(table.reached(*model.index_of("c0"), *model.index_of("c30")));
  EXPECT_FALSE(table.reached(*model.index_of("c0"), *model.index_of("c31")));
  EXPECT_TRUE(table.path(model, *model.index_of("c0"), *model.index_of("c31")).looped);
}

}  // namespace
