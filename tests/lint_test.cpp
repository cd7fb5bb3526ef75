// The pluggable static-analysis engine: registry, configuration,
// deterministic reports, the signaling and template analysis families,
// SARIF export, and the workflow lint gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "addressing/ipv4.hpp"
#include "core/workflow.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "render/renderer.hpp"
#include "topology/builtin.hpp"
#include "verify/index.hpp"
#include "verify/rules.hpp"

namespace {

using namespace autonet;
using verify::Severity;

nidb::Nidb compiled(const graph::Graph& input, const char* ibgp = "mesh") {
  core::WorkflowOptions opts;
  opts.ibgp = ibgp;
  core::Workflow wf(opts);
  wf.load(input).design().compile();
  return compiler::platform_compiler_for("netkit").compile(wf.anm());
}

const verify::Finding* find_code(const verify::Report& report,
                                 std::string_view code) {
  for (const auto& f : report.findings) {
    if (f.code == code) return &f;
  }
  return nullptr;
}

std::string bare_loopback(const nidb::Nidb& nidb, const std::string& device) {
  const auto* lo = nidb.device(device)->data.find("loopback");
  std::string ip = *lo->as_string();
  if (auto slash = ip.find('/'); slash != std::string::npos) ip.resize(slash);
  return ip;
}

// A hand-built router record with everything the NIDB rules expect.
nidb::DeviceRecord& add_router(nidb::Nidb& nidb, const std::string& name,
                               std::int64_t asn, const std::string& loopback) {
  auto& rec = nidb.add_device(name);
  rec.data["device_type"] = "router";
  rec.data["asn"] = asn;
  rec.data["hostname"] = name;
  rec.data["loopback"] = loopback + "/32";
  rec.data.set_path("render.base", "templates/quagga");
  return rec;
}

void add_ibgp(nidb::Nidb& nidb, const std::string& device,
              const std::string& neighbor_ip, std::int64_t remote_as,
              bool rr_client = false) {
  nidb::Object entry;
  entry["neighbor"] = neighbor_ip;
  entry["remote_as"] = remote_as;
  if (rr_client) entry["rr_client"] = true;
  nidb.device(device)->data["bgp"]["ibgp_neighbors"].array().emplace_back(
      std::move(entry));
}

// --- Registry & configuration ----------------------------------------------

TEST(RuleRegistry, BuiltinCataloguesAllFamilies) {
  const auto& registry = verify::RuleRegistry::builtin();
  EXPECT_EQ(registry.rules().size(), 16u);
  for (const char* id :
       {"dup-address", "subnet-overlap", "dup-hostname", "render-missing",
        "bgp-unknown-peer", "bgp-wrong-as", "bgp-asym-session",
        "ospf-area-mismatch", "ospf-half-link", "ibgp-partition",
        "rr-cluster-loop", "ibgp-nexthop-unresolved", "ebgp-peer-not-adjacent",
        "tpl-undefined-var", "tpl-unused-var", "tpl-parse-error"}) {
    EXPECT_NE(registry.find(id), nullptr) << id;
  }
  EXPECT_EQ(registry.find("no-such-rule"), nullptr);
  EXPECT_EQ(registry.find("ibgp-partition")->info.category, "signaling");
  EXPECT_EQ(registry.find("ibgp-partition")->info.origin, "design.ibgp");
  EXPECT_EQ(registry.find("tpl-unused-var")->info.default_severity,
            Severity::kWarning);
}

TEST(RuleRegistry, RejectsDuplicateIds) {
  verify::RuleRegistry registry;
  verify::Rule rule;
  rule.info.id = "twice";
  rule.run = [](const verify::RuleContext&, verify::Emitter&) {};
  registry.add(rule);
  EXPECT_THROW(registry.add(rule), std::invalid_argument);
}

TEST(LintOptions, ParsesConfigText) {
  auto opts = verify::LintOptions::parse_config(
      "# comment\n"
      "disable render-missing\n"
      "enable dup-address\n"
      "severity tpl-unused-var error\n"
      "fail-on warning\n");
  EXPECT_FALSE(opts.rule_enabled("render-missing"));
  EXPECT_TRUE(opts.rule_enabled("dup-address"));
  EXPECT_TRUE(opts.rule_enabled("never-mentioned"));
  verify::RuleInfo info;
  info.id = "tpl-unused-var";
  info.default_severity = Severity::kWarning;
  EXPECT_EQ(opts.severity_for(info), Severity::kError);
  EXPECT_TRUE(opts.fail_on_warning);
}

TEST(LintOptions, RejectsMalformedConfig) {
  EXPECT_THROW(verify::LintOptions::parse_config("disable\n"), std::runtime_error);
  EXPECT_THROW(verify::LintOptions::parse_config("severity x bogus\n"),
               std::runtime_error);
  EXPECT_THROW(verify::LintOptions::parse_config("frobnicate x\n"),
               std::runtime_error);
  EXPECT_THROW(verify::LintOptions::parse_config("disable a trailing\n"),
               std::runtime_error);
}

TEST(LintOptions, ConfigErrorsNameFileLineAndToken) {
  try {
    (void)verify::LintOptions::parse_config("# fine\nfrobnicate x\n",
                                            "conf/.autonetlint");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "conf/.autonetlint:2: unknown directive 'frobnicate'");
  }
  try {
    (void)verify::LintOptions::parse_config("disable a trailing\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    // Without a source name the legacy "lint config line N" prefix holds.
    EXPECT_EQ(std::string(e.what()),
              "lint config line 1: trailing token 'trailing'");
  }
}

TEST(LintOptions, DisablingARuleSuppressesItsFindings) {
  auto nidb = compiled(topology::figure5());
  nidb.device("r2")->data["hostname"] = "r1";
  verify::LintOptions opts;
  opts.enabled["dup-hostname"] = false;
  auto report = verify::run_lint({.nidb = &nidb}, opts);
  EXPECT_EQ(find_code(report, "dup-hostname"), nullptr);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(LintOptions, SeverityOverrideDowngradesToWarning) {
  auto nidb = compiled(topology::figure5());
  nidb.device("r2")->data["hostname"] = "r1";
  verify::LintOptions opts;
  opts.severity["dup-hostname"] = Severity::kWarning;
  auto report = verify::run_lint({.nidb = &nidb}, opts);
  const auto* f = find_code(report, "dup-hostname");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarning);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(opts.should_fail(report));
  opts.fail_on_warning = true;
  EXPECT_TRUE(opts.should_fail(report));
}

// --- Deterministic reports --------------------------------------------------

TEST(Report, ByteDeterministicGolden) {
  nidb::Nidb nidb;
  add_router(nidb, "a", 1, "10.0.0.1");
  add_router(nidb, "b", 1, "10.0.0.2");
  nidb.device("b")->data["hostname"] = "a";
  auto report = verify::run_lint({.nidb = &nidb});
  EXPECT_EQ(report.to_string(),
            "static check: 1 error(s), 0 warning(s)\n"
            "  [ERROR] dup-hostname (a): hostname 'a' used by: a, b "
            "[at hostname]");
}

TEST(Report, SortedAndDeduplicated) {
  auto nidb = compiled(topology::figure5());
  nidb.device("r2")->data["hostname"] = "r1";
  nidb.device("r4")->data["hostname"] = "r3";
  auto first = verify::run_lint({.nidb = &nidb});
  auto second = verify::run_lint({.nidb = &nidb});
  EXPECT_EQ(first.to_string(), second.to_string());
  EXPECT_EQ(first.to_json(), second.to_json());
  EXPECT_TRUE(std::is_sorted(first.findings.begin(), first.findings.end()));
  // Merging a report into itself and re-finalizing removes duplicates.
  auto merged = first;
  merged.merge(second);
  merged.finalize();
  EXPECT_EQ(merged.findings.size(), first.findings.size());
}

TEST(Report, FindingsCarryProvenance) {
  auto nidb = compiled(topology::figure5());
  auto& neighbors = nidb.device("r3")->data["bgp"]["ebgp_neighbors"].array();
  ASSERT_FALSE(neighbors.empty());
  neighbors[0]["remote_as"] = 999;
  auto report = verify::run_lint({.nidb = &nidb});
  const auto* f = find_code(report, "bgp-wrong-as");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->device, "r3");
  EXPECT_EQ(f->path, "bgp.ebgp_neighbors[0]");
  EXPECT_EQ(f->origin, "design.ebgp");
  // The provenance path resolves back into the NIDB record.
  const auto* v = nidb.device("r3")->data.find_path(f->path);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->find("remote_as")->as_int().value_or(0), 999);
}

// --- Control-plane signaling analysis ---------------------------------------

TEST(Signaling, CleanOnGeneratedTopologies) {
  for (const char* ibgp : {"mesh", "rr-auto"}) {
    const auto nidb = compiled(topology::small_internet(), ibgp);
    auto report = verify::run_lint({.nidb = &nidb});
    EXPECT_TRUE(report.ok()) << ibgp << ": " << report.to_string();
  }
}

TEST(Signaling, DetectsIbgpPartition) {
  // Three routers in AS1; only r1<->r2 peer. r3 runs iBGP nowhere, so the
  // signaling graph is partitioned in both directions.
  nidb::Nidb nidb;
  add_router(nidb, "r1", 1, "10.0.0.1");
  add_router(nidb, "r2", 1, "10.0.0.2");
  add_router(nidb, "r3", 1, "10.0.0.3");
  add_ibgp(nidb, "r1", "10.0.0.2", 1);
  add_ibgp(nidb, "r2", "10.0.0.1", 1);
  auto report = verify::run_lint({.nidb = &nidb});
  const auto* f = find_code(report, "ibgp-partition");
  ASSERT_NE(f, nullptr) << report.to_string();
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_NE(f->message.find("r3"), std::string::npos);
}

TEST(Signaling, RouteReflectorClusterIsConnected) {
  // Hub-and-spoke through one reflector: clients do not peer with each
  // other, yet RFC 4456 reflection reaches everyone — no partition.
  nidb::Nidb nidb;
  add_router(nidb, "rr", 1, "10.0.0.1");
  add_router(nidb, "c1", 1, "10.0.0.2");
  add_router(nidb, "c2", 1, "10.0.0.3");
  add_ibgp(nidb, "rr", "10.0.0.2", 1, /*rr_client=*/true);
  add_ibgp(nidb, "rr", "10.0.0.3", 1, /*rr_client=*/true);
  add_ibgp(nidb, "c1", "10.0.0.1", 1);
  add_ibgp(nidb, "c2", "10.0.0.1", 1);
  auto report = verify::run_lint({.nidb = &nidb});
  EXPECT_EQ(find_code(report, "ibgp-partition"), nullptr) << report.to_string();
}

TEST(Signaling, PlainMeshOfNonReflectorsDoesNotForward) {
  // A chain r1-r2-r3 without reflection: r2 will not forward r1's routes
  // to r3 (iBGP split horizon), so the AS is partitioned even though the
  // session graph is connected.
  nidb::Nidb nidb;
  add_router(nidb, "r1", 1, "10.0.0.1");
  add_router(nidb, "r2", 1, "10.0.0.2");
  add_router(nidb, "r3", 1, "10.0.0.3");
  add_ibgp(nidb, "r1", "10.0.0.2", 1);
  add_ibgp(nidb, "r2", "10.0.0.1", 1);
  add_ibgp(nidb, "r2", "10.0.0.3", 1);
  add_ibgp(nidb, "r3", "10.0.0.2", 1);
  auto report = verify::run_lint({.nidb = &nidb});
  const auto* f = find_code(report, "ibgp-partition");
  ASSERT_NE(f, nullptr) << report.to_string();
  EXPECT_EQ(f->severity, Severity::kError);
}

TEST(Signaling, DetectsRrClusterLoop) {
  nidb::Nidb nidb;
  add_router(nidb, "r1", 1, "10.0.0.1");
  add_router(nidb, "r2", 1, "10.0.0.2");
  // Mutual reflection: each treats the other as its client.
  add_ibgp(nidb, "r1", "10.0.0.2", 1, /*rr_client=*/true);
  add_ibgp(nidb, "r2", "10.0.0.1", 1, /*rr_client=*/true);
  auto report = verify::run_lint({.nidb = &nidb});
  const auto* f = find_code(report, "rr-cluster-loop");
  ASSERT_NE(f, nullptr) << report.to_string();
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->origin, "design.ibgp");
}

TEST(Signaling, DetectsUnresolvableNexthop) {
  auto nidb = compiled(topology::figure5());
  // Remove the loopback /32 from r2's OSPF process: peers can no longer
  // resolve sessions towards r2's loopback.
  const std::string lo = bare_loopback(nidb, "r2");
  auto& links = nidb.device("r2")->data["ospf"]["ospf_links"].array();
  std::erase_if(links, [&](const nidb::Value& link) {
    const auto* network = link.find("network");
    const auto* s = network != nullptr ? network->as_string() : nullptr;
    return s != nullptr && s->starts_with(lo);
  });
  auto report = verify::run_lint({.nidb = &nidb});
  const auto* f = find_code(report, "ibgp-nexthop-unresolved");
  ASSERT_NE(f, nullptr) << report.to_string();
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_NE(f->message.find("r2"), std::string::npos);
}

TEST(Signaling, CbgpNodeIdPeeringIsExemptFromAdjacency) {
  // The C-BGP compiler rewrites eBGP endpoints to node ids (loopbacks)
  // and marks them multihop; the adjacency rule must not fire on that.
  core::Workflow wf;
  wf.load(topology::small_internet()).design().compile();
  auto nidb = compiler::platform_compiler_for("cbgp").compile(wf.anm());
  auto report = verify::run_lint({.nidb = &nidb});
  EXPECT_EQ(find_code(report, "ebgp-peer-not-adjacent"), nullptr)
      << report.to_string();
}

TEST(Signaling, DetectsEbgpPeerWithoutSharedSubnet) {
  auto nidb = compiled(topology::figure5());
  auto& neighbors = nidb.device("r3")->data["bgp"]["ebgp_neighbors"].array();
  ASSERT_FALSE(neighbors.empty());
  // Point the session at r5's loopback: owned by the right AS, but on no
  // collision domain r3 attaches to.
  neighbors[0]["neighbor"] = bare_loopback(nidb, "r5");
  auto report = verify::run_lint({.nidb = &nidb});
  const auto* f = find_code(report, "ebgp-peer-not-adjacent");
  ASSERT_NE(f, nullptr) << report.to_string();
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->device, "r3");
}

TEST(Lint, AnycastStubPrefixesAreNotDuplicateAddresses) {
  // Multi-origin advertisement (the same prefix attached at two exits)
  // is a feature, not an addressing error: the stub interfaces share a
  // host address on purpose.
  graph::Graph g(false, "anycast");
  for (const char* name : {"a", "b"}) {
    graph::NodeId n = g.add_node(name);
    g.set_node_attr(n, "asn", std::int64_t{1});
    g.set_node_attr(n, "device_type", "router");
    g.set_node_attr(n, "advertise_prefix", "203.0.113.0/24");
  }
  g.add_edge("a", "b");
  const auto nidb = compiled(g);
  auto report = verify::run_lint({.nidb = &nidb});
  EXPECT_EQ(find_code(report, "dup-address"), nullptr) << report.to_string();
  EXPECT_EQ(find_code(report, "subnet-overlap"), nullptr) << report.to_string();
}

// --- The indexed rules against their pairwise predecessors -----------------
// bgp-asym-session, ibgp-nexthop-unresolved and ebgp-peer-not-adjacent
// answer from lookups the gather pass builds (sorted statement positions,
// per-device interface ranges). The bodies below are the scans they
// replaced, over the same index (which now parses subnets and OSPF
// networks once, where the scans parsed them per statement); both must
// emit the same findings in the same order.

using verify::detail::NidbIndex;

void reference_asym_session(const verify::RuleContext& ctx, verify::Emitter& out) {
  const NidbIndex& index = *ctx.index;
  for (const auto& n : index.neighbors) {
    auto owner = index.address_owner.find(n.neighbor_ip);
    if (owner == index.address_owner.end()) continue;  // bgp-unknown-peer
    const std::string& peer = owner->second;
    auto mine = index.owned.find(n.device);
    bool reverse = false;
    for (const auto& back : index.neighbors) {
      if (back.device == peer && mine != index.owned.end() &&
          mine->second.contains(back.neighbor_ip)) {
        reverse = true;
        break;
      }
    }
    if (!reverse) {
      out.emit(n.device, "session to " + n.neighbor_ip + " (" + peer +
                             ") has no matching reverse neighbor statement",
               n.path());
    }
  }
}

void reference_ibgp_nexthop(const verify::RuleContext& ctx, verify::Emitter& out) {
  using addressing::Ipv4Addr;
  using addressing::Ipv4Prefix;
  const NidbIndex& index = *ctx.index;
  for (const auto& n : index.neighbors) {
    if (!n.ibgp || n.neighbor_ip.empty()) continue;
    auto owner = index.address_owner.find(n.neighbor_ip);
    if (owner == index.address_owner.end()) continue;
    const std::string& peer = owner->second;
    auto as_a = index.device_asn.find(n.device);
    auto as_b = index.device_asn.find(peer);
    if (as_a == index.device_asn.end() || as_b == index.device_asn.end() ||
        as_a->second != as_b->second) {
      continue;
    }
    auto own_igp = index.ospf_covered.find(n.device);
    if (own_igp == index.ospf_covered.end()) continue;

    auto addr = Ipv4Addr::parse(n.neighbor_ip);
    if (!addr) continue;
    bool resolvable = false;
    for (const auto& iface : index.interfaces) {
      if (iface.device != n.device) continue;
      if (iface.subnet && iface.subnet->contains(*addr)) {
        resolvable = true;
        break;
      }
    }
    if (!resolvable) {
      auto peer_igp = index.ospf_covered.find(peer);
      if (peer_igp != index.ospf_covered.end()) {
        for (const Ipv4Prefix& network : peer_igp->second) {
          if (network.contains(*addr)) {
            resolvable = true;
            break;
          }
        }
      }
    }
    if (!resolvable) {
      out.emit(n.device,
               "iBGP neighbor " + n.neighbor_ip + " (" + peer +
                   ") is unresolvable: " + peer +
                   " does not advertise it into the IGP and it is not on a "
                   "connected subnet",
               n.path());
    }
  }
}

void reference_ebgp_adjacency(const verify::RuleContext& ctx, verify::Emitter& out) {
  using addressing::Ipv4Addr;
  const NidbIndex& index = *ctx.index;
  for (const auto& n : index.neighbors) {
    if (n.ibgp || n.multihop || n.neighbor_ip.empty()) continue;
    auto owner = index.address_owner.find(n.neighbor_ip);
    if (owner == index.address_owner.end()) continue;  // bgp-unknown-peer
    auto addr = Ipv4Addr::parse(n.neighbor_ip);
    if (!addr) continue;
    bool adjacent = false;
    for (const auto& iface : index.interfaces) {
      if (iface.device != n.device) continue;
      if (iface.subnet && iface.subnet->contains(*addr)) {
        adjacent = true;
        break;
      }
    }
    if (!adjacent) {
      out.emit(n.device,
               "eBGP neighbor " + n.neighbor_ip + " (" + owner->second +
                   ") is on no collision domain shared with " + n.device,
               n.path());
    }
  }
}

/// The findings one rule body emits over `nidb`, one "device | message |
/// path" line each, in emission order.
std::string emitted(const std::string& id,
                    const std::function<void(const verify::RuleContext&,
                                             verify::Emitter&)>& body,
                    const nidb::Nidb& nidb, const NidbIndex& index) {
  const verify::Rule* rule = verify::RuleRegistry::builtin().find(id);
  verify::LintInput input;
  input.nidb = &nidb;
  verify::RuleContext ctx;
  ctx.input = &input;
  ctx.index = &index;
  verify::Report report;
  verify::Emitter emitter(rule->info, rule->info.default_severity, report);
  body(ctx, emitter);
  std::string out;
  for (const auto& f : report.findings) {
    out += f.device + " | " + f.message + " | " + f.path + "\n";
  }
  return out;
}

/// Compares the three registered rules with their references over `nidb`;
/// returns how many findings they emitted.
std::size_t expect_reference_findings(const nidb::Nidb& nidb) {
  const NidbIndex index = NidbIndex::build(nidb);
  std::size_t lines = 0;
  const std::pair<const char*, void (*)(const verify::RuleContext&, verify::Emitter&)>
      references[] = {{"bgp-asym-session", reference_asym_session},
                      {"ibgp-nexthop-unresolved", reference_ibgp_nexthop},
                      {"ebgp-peer-not-adjacent", reference_ebgp_adjacency}};
  for (const auto& [id, reference] : references) {
    const std::string got =
        emitted(id, verify::RuleRegistry::builtin().find(id)->run, nidb, index);
    EXPECT_EQ(got, emitted(id, reference, nidb, index)) << id;
    lines += static_cast<std::size_t>(std::ranges::count(got, '\n'));
  }
  return lines;
}

nidb::Array& statements(nidb::Nidb& nidb, const std::string& device, bool ibgp) {
  return nidb.device(device)->data["bgp"][ibgp ? "ibgp_neighbors" : "ebgp_neighbors"]
      .array();
}

/// The position of `device`'s statement naming `ip`.
std::size_t statement_naming(nidb::Nidb& nidb, const std::string& device, bool ibgp,
                             const std::string& ip) {
  const nidb::Array& list = statements(nidb, device, ibgp);
  for (std::size_t i = 0; i < list.size(); ++i) {
    const auto* neighbor = list[i].find("neighbor");
    if (neighbor != nullptr && neighbor->as_string() != nullptr &&
        *neighbor->as_string() == ip) {
      return i;
    }
  }
  ADD_FAILURE() << device << " names no " << ip;
  return 0;
}

/// The bare address of `device`'s interface on the subnet it shares with
/// `other`.
std::string shared_interface_ip(const nidb::Nidb& nidb, const std::string& device,
                                const std::string& other) {
  const auto& mine = *nidb.device(device)->data.find("interfaces")->as_array();
  const auto& theirs = *nidb.device(other)->data.find("interfaces")->as_array();
  for (const auto& a : mine) {
    for (const auto& b : theirs) {
      if (*a.find("subnet")->as_string() == *b.find("subnet")->as_string()) {
        std::string ip = *a.find("ip_address")->as_string();
        return ip.substr(0, ip.find('/'));
      }
    }
  }
  ADD_FAILURE() << device << " shares no subnet with " << other;
  return "";
}

TEST(IndexedRules, MatchPairwiseReferenceOnBuiltins) {
  expect_reference_findings(compiled(topology::small_internet()));
  expect_reference_findings(compiled(topology::figure5()));
  expect_reference_findings(compiled(topology::figure5(), "rr"));
}

TEST(IndexedRules, MatchPairwiseReferenceUnderMutations) {
  const nidb::Nidb base = compiled(topology::figure5());
  const std::string r1 = bare_loopback(base, "r1");
  const std::string r3 = bare_loopback(base, "r3");
  const std::string r5 = bare_loopback(base, "r5");
  const std::function<void(nidb::Nidb&)> mutations[] = {
      // A reverse statement removed.
      [&](nidb::Nidb& n) {
        auto& list = statements(n, "r2", true);
        list.erase(list.begin() + static_cast<std::ptrdiff_t>(
                                      statement_naming(n, "r2", true, r1)));
      },
      // The reverse statement names the peer's interface address (on its
      // eBGP link, outside every IGP network) instead of its loopback.
      [&](nidb::Nidb& n) {
        statements(n, "r4", true)[statement_naming(n, "r4", true, r3)]["neighbor"] =
            shared_interface_ip(n, "r3", "r5");
      },
      // One address claimed by two devices: r1 takes r5's loopback.
      [&](nidb::Nidb& n) { n.device("r1")->data["loopback"] = r5 + "/32"; },
      // An empty neighbor address.
      [&](nidb::Nidb& n) {
        statements(n, "r2", true)[statement_naming(n, "r2", true, r1)]["neighbor"] = "";
      },
      // A device that owns no address.
      [&](nidb::Nidb& n) {
        auto& rec = n.device("r2")->data;
        rec["loopback"] = std::int64_t{0};
        for (auto& iface : rec["interfaces"].array()) iface["stub"] = true;
      },
      // An iBGP neighbor outside every IGP network of its peer.
      [&](nidb::Nidb& n) {
        const std::string lo = bare_loopback(n, "r2");
        std::erase_if(n.device("r2")->data["ospf"]["ospf_links"].array(),
                      [&](const nidb::Value& link) {
                        const auto* network = link.find("network");
                        const auto* text = network ? network->as_string() : nullptr;
                        return text != nullptr && text->starts_with(lo);
                      });
      },
      // An eBGP neighbor outside every shared subnet.
      [&](nidb::Nidb& n) { statements(n, "r3", false)[0]["neighbor"] = r5; },
      // A multihop eBGP statement (exempt from adjacency) whose peer names
      // it nowhere.
      [&](nidb::Nidb& n) {
        auto& mine = statements(n, "r3", false)[0];
        mine["neighbor"] = r5;
        mine["multihop"] = true;
        auto& theirs = statements(n, "r5", false);
        theirs.erase(theirs.begin() +
                     static_cast<std::ptrdiff_t>(statement_naming(
                         n, "r5", false, shared_interface_ip(n, "r3", "r5"))));
      },
  };
  for (std::size_t i = 0; i < std::size(mutations); ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    // NIDB copies share their arrays and objects: mutate a fresh compile.
    nidb::Nidb nidb = compiled(topology::figure5());
    mutations[i](nidb);
    EXPECT_GT(expect_reference_findings(nidb), 0u);
  }
}

// --- Template static analysis -----------------------------------------------

TEST(TemplateLint, BuiltinTemplateSetsAreClean) {
  verify::LintInput input;
  input.templates = &render::TemplateStore::builtins();
  auto report = verify::run_lint(input);
  EXPECT_TRUE(report.findings.empty()) << report.to_string();
}

TEST(TemplateLint, DetectsUndefinedVariable) {
  render::TemplateStore store;
  store.add("templates/test", "a.conf", "hostname ${nodee.hostname}\n");
  verify::LintInput input;
  input.templates = &store;
  auto report = verify::run_lint(input);
  const auto* f = find_code(report, "tpl-undefined-var");
  ASSERT_NE(f, nullptr) << report.to_string();
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->device, "templates/test/a.conf");
  EXPECT_EQ(f->path, "nodee.hostname");
}

TEST(TemplateLint, LoopVariablesAreInScope) {
  render::TemplateStore store;
  store.add("templates/test", "a.conf",
            "% for iface in node.interfaces:\n"
            "interface ${iface.id}\n"
            "% endfor\n");
  verify::LintInput input;
  input.templates = &store;
  auto report = verify::run_lint(input);
  EXPECT_EQ(find_code(report, "tpl-undefined-var"), nullptr)
      << report.to_string();
}

TEST(TemplateLint, DetectsUnusedPassedInVariable) {
  render::TemplateStore store;
  store.add("templates/test", "motd.txt", "banner ${data.network}\n");
  verify::LintInput input;
  input.templates = &store;
  auto report = verify::run_lint(input);
  const auto* f = find_code(report, "tpl-unused-var");
  ASSERT_NE(f, nullptr) << report.to_string();
  EXPECT_EQ(f->severity, Severity::kWarning);
  EXPECT_EQ(f->path, "node");
  // Ambient context (`data`, `devices`) is exempt: referencing only
  // `node` must not warn.
  render::TemplateStore store2;
  store2.add("templates/test", "a.conf", "hostname ${node.hostname}\n");
  verify::LintInput input2;
  input2.templates = &store2;
  auto report2 = verify::run_lint(input2);
  EXPECT_EQ(find_code(report2, "tpl-unused-var"), nullptr)
      << report2.to_string();
}

TEST(TemplateLint, DetectsUnterminatedBlockInRawSource) {
  verify::LintInput input;
  input.template_files.emplace_back("broken.tmpl",
                                    "% for i in node.interfaces:\nline\n");
  auto report = verify::run_lint(input);
  const auto* f = find_code(report, "tpl-parse-error");
  ASSERT_NE(f, nullptr) << report.to_string();
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->device, "broken.tmpl");
  EXPECT_NE(f->message.find("endfor"), std::string::npos);
}

// --- SARIF export ------------------------------------------------------------

TEST(Sarif, EmitsValidSarifWithRuleMetadata) {
  auto nidb = compiled(topology::figure5());
  nidb.device("r2")->data["hostname"] = "r1";
  auto report = verify::run_lint({.nidb = &nidb});
  const std::string sarif = verify::to_sarif(report);
  auto doc = nidb::parse_json(sarif);
  EXPECT_EQ(*doc.find("version")->as_string(), "2.1.0");
  const auto& runs = *doc.find("runs")->as_array();
  ASSERT_EQ(runs.size(), 1u);
  const auto& driver = *runs[0].find_path("tool.driver");
  EXPECT_EQ(*driver.find("name")->as_string(), "autonet-lint");
  EXPECT_EQ(driver.find("rules")->as_array()->size(),
            verify::RuleRegistry::builtin().rules().size());
  const auto& results = *runs[0].find("results")->as_array();
  ASSERT_FALSE(results.empty());
  bool found = false;
  for (const auto& r : results) {
    if (*r.find("ruleId")->as_string() == "dup-hostname") {
      found = true;
      EXPECT_EQ(*r.find("level")->as_string(), "error");
    }
  }
  EXPECT_TRUE(found);
}

// --- Workflow gate & telemetry ----------------------------------------------

graph::Graph conflicting_pair() {
  graph::Graph g(false, "conflict");
  // The two stub LANs overlap (the /25 nests inside the /24): a
  // subnet-overlap error at lint time, though the network still boots.
  const char* prefixes[] = {"203.0.113.0/24", "203.0.113.128/25"};
  int i = 0;
  for (const char* name : {"a", "b"}) {
    graph::NodeId n = g.add_node(name);
    g.set_node_attr(n, "asn", std::int64_t{1});
    g.set_node_attr(n, "device_type", "router");
    g.set_node_attr(n, "advertise_prefix", prefixes[i++]);
  }
  g.add_edge("a", "b");
  return g;
}

TEST(WorkflowGate, FailFastRefusesToDeploy) {
  core::Workflow wf;
  EXPECT_THROW(wf.run(conflicting_pair()), core::LintError);
  try {
    core::Workflow wf2;
    wf2.run(conflicting_pair());
  } catch (const core::LintError& e) {
    EXPECT_FALSE(e.report().ok());
    EXPECT_NE(nullptr, find_code(e.report(), "subnet-overlap"));
  }
}

TEST(WorkflowGate, NonFatalModeRecordsReportAndDeploys) {
  core::WorkflowOptions opts;
  opts.lint.fail_fast = false;
  core::Workflow wf(opts);
  wf.run(conflicting_pair());
  EXPECT_FALSE(wf.lint_report().ok());
  EXPECT_NE(nullptr, find_code(wf.lint_report(), "subnet-overlap"));
  EXPECT_TRUE(wf.deploy_result().success);
}

TEST(WorkflowGate, DisabledGateSkipsLint) {
  core::WorkflowOptions opts;
  opts.lint.enabled = false;
  core::Workflow wf(opts);
  wf.run(conflicting_pair());
  EXPECT_THROW(wf.lint_report(), std::logic_error);
  EXPECT_FALSE(wf.timings().ms.contains("lint"));
}

TEST(WorkflowGate, CleanRunRecordsLintPhaseAndSpans) {
  obs::Registry registry;
  core::Workflow wf;
  wf.use_telemetry(&registry);
  wf.run(topology::figure5());
  EXPECT_TRUE(wf.lint_report().ok());
  EXPECT_TRUE(wf.timings().ms.contains("lint"));
  const std::string trace = obs::to_chrome_trace(registry);
  EXPECT_NE(trace.find("\"lint\""), std::string::npos);
  EXPECT_NE(trace.find("lint.ibgp-partition"), std::string::npos);
  EXPECT_NE(trace.find("lint.tpl-undefined-var"), std::string::npos);
}

}  // namespace
