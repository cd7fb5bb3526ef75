// The ported NIDB consistency checks (the former static_check monolith),
// each a registered rule over the shared NidbIndex gather pass.
#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "addressing/ipv4.hpp"
#include "nidb/nidb.hpp"
#include "verify/index.hpp"
#include "verify/rules.hpp"

namespace autonet::verify {

using addressing::Ipv4Prefix;
using detail::NidbIndex;

namespace {

void check_dup_address(const RuleContext& ctx, Emitter& out) {
  for (const auto& dup : ctx.index->duplicate_addresses) {
    out.emit(dup.device, "address " + dup.ip + " already assigned to " + dup.owner,
             dup.path);
  }
}

void check_dup_hostname(const RuleContext& ctx, Emitter& out) {
  for (const auto& [hostname, users] : ctx.index->hostname_users) {
    if (users.size() <= 1) continue;
    std::string list;
    for (const auto& u : users) list += (list.empty() ? "" : ", ") + u;
    out.emit(users.front(), "hostname '" + hostname + "' used by: " + list,
             "hostname");
  }
}

void check_render_missing(const RuleContext& ctx, Emitter& out) {
  for (const nidb::DeviceRecord* rec : ctx.input->nidb->devices()) {
    const nidb::Value* base = rec->data.find_path("render.base");
    if (base == nullptr || base->as_string() == nullptr) {
      out.emit(rec->name,
               "no render attributes; device will not produce configuration",
               "render.base");
    }
  }
}

void check_subnet_overlap(const RuleContext& ctx, Emitter& out) {
  std::vector<std::pair<std::string, Ipv4Prefix>> distinct;
  for (const auto& [subnet, attachments] : ctx.index->subnet_attachments) {
    if (auto p = Ipv4Prefix::parse(subnet)) distinct.emplace_back(subnet, *p);
  }
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    for (std::size_t j = i + 1; j < distinct.size(); ++j) {
      if (distinct[i].second.overlaps(distinct[j].second)) {
        out.emit("", "collision domains " + distinct[i].first + " and " +
                         distinct[j].first + " overlap");
      }
    }
  }
}

void check_bgp_unknown_peer(const RuleContext& ctx, Emitter& out) {
  const NidbIndex& index = *ctx.index;
  for (const auto& n : index.neighbors) {
    if (n.neighbor_ip.empty()) {
      out.emit(n.device,
               std::string("empty neighbor address in bgp.") +
                   (n.ibgp ? "ibgp_neighbors" : "ebgp_neighbors"),
               n.path());
      continue;
    }
    if (!index.address_owner.contains(n.neighbor_ip)) {
      out.emit(n.device, "neighbor " + n.neighbor_ip + " is owned by no device",
               n.path());
    }
  }
}

void check_bgp_wrong_as(const RuleContext& ctx, Emitter& out) {
  const NidbIndex& index = *ctx.index;
  for (const auto& n : index.neighbors) {
    auto owner = index.address_owner.find(n.neighbor_ip);
    if (owner == index.address_owner.end()) continue;  // bgp-unknown-peer
    const std::string& peer = owner->second;
    auto asn = index.device_asn.find(peer);
    const std::int64_t peer_as = asn == index.device_asn.end() ? 0 : asn->second;
    if (n.remote_as != peer_as) {
      out.emit(n.device, "neighbor " + n.neighbor_ip + " (" + peer + ") is AS" +
                             std::to_string(peer_as) + " but remote-as says " +
                             std::to_string(n.remote_as),
               n.path());
    }
  }
}

void check_bgp_asym_session(const RuleContext& ctx, Emitter& out) {
  const NidbIndex& index = *ctx.index;
  for (const auto& n : index.neighbors) {
    auto owner = index.address_owner.find(n.neighbor_ip);
    if (owner == index.address_owner.end()) continue;  // bgp-unknown-peer
    const std::string& peer = owner->second;
    // The reverse statement is the peer's, naming any address we own.
    auto mine = index.owned.find(n.device);
    const bool reverse =
        mine != index.owned.end() &&
        std::ranges::any_of(mine->second, [&](const std::string& ip) {
          return index.has_statement(peer, ip);
        });
    if (!reverse) {
      out.emit(n.device, "session to " + n.neighbor_ip + " (" + peer +
                             ") has no matching reverse neighbor statement",
               n.path());
    }
  }
}

bool routers_same_as(const NidbIndex& index, const std::string& a,
                     const std::string& b) {
  auto type = [&](const std::string& d) {
    auto it = index.device_type.find(d);
    return it == index.device_type.end() ? std::string() : it->second;
  };
  auto asn = [&](const std::string& d) {
    auto it = index.device_asn.find(d);
    return it == index.device_asn.end() ? std::int64_t{0} : it->second;
  };
  return asn(a) == asn(b) && type(a) == "router" && type(b) == "router";
}

void check_ospf_half_link(const RuleContext& ctx, Emitter& out) {
  for (const auto& [subnet, attachments] : ctx.index->subnet_attachments) {
    for (std::size_t i = 0; i < attachments.size(); ++i) {
      for (std::size_t j = i + 1; j < attachments.size(); ++j) {
        const auto& a = attachments[i];
        const auto& b = attachments[j];
        // Only intra-AS router-router links are expected to run OSPF.
        if (!routers_same_as(*ctx.index, a.device, b.device)) continue;
        const bool a_runs = a.area >= 0;
        const bool b_runs = b.area >= 0;
        if (a_runs != b_runs) {
          out.emit(a_runs ? b.device : a.device,
                   "intra-AS link " + subnet + " between " + a.device + " and " +
                       b.device + " runs OSPF on one side only",
                   "ospf.ospf_links");
        }
      }
    }
  }
}

void check_ospf_area_mismatch(const RuleContext& ctx, Emitter& out) {
  for (const auto& [subnet, attachments] : ctx.index->subnet_attachments) {
    for (std::size_t i = 0; i < attachments.size(); ++i) {
      for (std::size_t j = i + 1; j < attachments.size(); ++j) {
        const auto& a = attachments[i];
        const auto& b = attachments[j];
        if (!routers_same_as(*ctx.index, a.device, b.device)) continue;
        if (a.area >= 0 && b.area >= 0 && a.area != b.area) {
          out.emit(a.device, "link " + subnet + ": " + a.device + " uses area " +
                                 std::to_string(a.area) + ", " + b.device +
                                 " area " + std::to_string(b.area),
                   "ospf.ospf_links");
        }
      }
    }
  }
}

Rule nidb_rule(std::string id, std::string category, Severity severity,
               std::string description, std::string origin,
               void (*fn)(const RuleContext&, Emitter&)) {
  Rule rule;
  rule.info = {std::move(id), std::move(category), severity,
               std::move(description), std::move(origin)};
  rule.run = fn;
  rule.needs_nidb = true;
  return rule;
}

}  // namespace

void register_nidb_rules(RuleRegistry& registry) {
  registry.add(nidb_rule(
      "dup-address", "addressing", Severity::kError,
      "an interface or loopback address is assigned to two devices", "design.ip",
      check_dup_address));
  registry.add(nidb_rule(
      "subnet-overlap", "addressing", Severity::kError,
      "two distinct collision-domain subnets overlap", "design.ip",
      check_subnet_overlap));
  registry.add(nidb_rule(
      "dup-hostname", "naming", Severity::kError,
      "two devices share a sanitised hostname", "compile",
      check_dup_hostname));
  registry.add(nidb_rule(
      "render-missing", "render", Severity::kWarning,
      "a device record lacks render attributes and produces no configuration",
      "compile", check_render_missing));
  registry.add(nidb_rule(
      "bgp-unknown-peer", "bgp", Severity::kError,
      "a BGP neighbor address is empty or owned by no device", "design.ebgp",
      check_bgp_unknown_peer));
  registry.add(nidb_rule(
      "bgp-wrong-as", "bgp", Severity::kError,
      "a neighbor's remote-as disagrees with the peer's AS", "design.ebgp",
      check_bgp_wrong_as));
  registry.add(nidb_rule(
      "bgp-asym-session", "bgp", Severity::kError,
      "a neighbor statement has no matching reverse statement", "design.ebgp",
      check_bgp_asym_session));
  registry.add(nidb_rule(
      "ospf-area-mismatch", "ospf", Severity::kError,
      "the two ends of a link configure different OSPF areas", "design.ospf",
      check_ospf_area_mismatch));
  registry.add(nidb_rule(
      "ospf-half-link", "ospf", Severity::kError,
      "only one end of an intra-AS link runs OSPF on it", "design.ospf",
      check_ospf_half_link));
}

}  // namespace autonet::verify
