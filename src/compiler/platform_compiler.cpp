#include "compiler/platform_compiler.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <stdexcept>

#include "addressing/allocator.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace autonet::compiler {

using nidb::Array;
using nidb::Object;
using nidb::Value;

namespace {

std::string strip_len(std::string addr) {
  if (auto slash = addr.find('/'); slash != std::string::npos) addr.resize(slash);
  return addr;
}

unsigned prefixlen_of(const std::string& cidr) {
  auto slash = cidr.find('/');
  if (slash == std::string::npos) return 32;
  return static_cast<unsigned>(std::stoul(cidr.substr(slash + 1)));
}

}  // namespace

std::string PlatformCompiler::sanitize_hostname(std::string name) const {
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '_') {
      c = '_';
    }
  }
  if (name.empty()) name = "device";
  return name;
}

void PlatformCompiler::platform_data(const anm::AbstractNetworkModel&,
                                     nidb::Nidb&) const {}

nidb::Nidb PlatformCompiler::compile(const anm::AbstractNetworkModel& anm,
                                     const PlatformOptions& opts) const {
  if (!anm.has_overlay("phy") || !anm.has_overlay("ip")) {
    throw std::invalid_argument(
        "platform compile: requires 'phy' and 'ip' overlays (run the design "
        "rules first)");
  }
  auto g_phy = anm["phy"];
  auto g_ip = anm["ip"];

  nidb::Nidb nidb;
  nidb.data()["platform"] = platform();
  nidb.data()["host"] = opts.default_host;

  // Design provenance for the static analyser: which design overlays
  // produced this database, and the chosen iBGP signaling mode.
  {
    Object design;
    Array rules;
    for (const auto& name : anm.overlay_names()) rules.emplace_back(name);
    design["rules"] = Value(std::move(rules));
    if (anm.has_overlay("ibgp")) {
      const graph::AttrMap& ibgp_data = anm["ibgp"].data();
      if (auto it = ibgp_data.find("ibgp_mode"); it != ibgp_data.end()) {
        if (const auto* mode = it->second.as_string()) {
          design["ibgp_mode"] = *mode;
        }
      }
    }
    nidb.data()["design"] = Value(std::move(design));
  }

  auto mgmt_block = addressing::Ipv4Prefix::parse(opts.mgmt_block);
  if (!mgmt_block) throw std::invalid_argument("bad mgmt block " + opts.mgmt_block);
  addressing::HostAllocator mgmt(*mgmt_block);

  // Devices in deterministic (name) order.
  std::vector<anm::OverlayNode> devices;
  for (const auto& n : g_phy.nodes()) {
    if (n.is_router() || n.is_server()) devices.push_back(n);
  }
  std::sort(devices.begin(), devices.end(),
            [](const anm::OverlayNode& a, const anm::OverlayNode& b) {
              return a.name() < b.name();
            });

  obs::Registry& obs = obs::Registry::current();
  obs::Counter& devices_compiled = obs.counter("compile.devices");

  for (const auto& dev : devices) {
    obs::Span span(obs, "compile.device");
    span.arg("device", dev.name());
    devices_compiled.inc();

    CompileContext ctx;
    ctx.anm = &anm;
    ctx.platform = platform();
    ctx.device = dev.name();
    ctx.hostname = sanitize_hostname(dev.name());
    ctx.loopback_id = loopback_name();

    auto ip_node = g_ip.node(dev.name());
    if (ip_node) {
      if (const auto* lo = ip_node->attr("loopback").as_string()) {
        ctx.loopback = *lo;
      }

      // Interfaces: one per attached collision domain, sorted by domain
      // name so numbering is deterministic across runs.
      auto edges = ip_node->edges();
      std::sort(edges.begin(), edges.end(),
                [&](const anm::OverlayEdge& a, const anm::OverlayEdge& b) {
                  return a.other(*ip_node).name() < b.other(*ip_node).name();
                });
      std::size_t index = 0;
      for (const auto& e : edges) {
        auto cd = e.other(*ip_node);
        if (!cd.attr("collision_domain").truthy()) continue;
        ResolvedInterface iface;
        iface.id = data_interface_name(index++);
        iface.collision_domain = cd.name();
        if (const auto* ip = e.attr("ip").as_string()) iface.ip = strip_len(*ip);
        if (const auto* ip6 = e.attr("ip6").as_string()) iface.ip6 = *ip6;
        if (const auto* subnet = cd.attr("subnet").as_string()) {
          iface.subnet = *subnet;
          iface.prefixlen = prefixlen_of(*subnet);
        }

        // Peers on this domain (one for p2p, several for LANs).
        std::vector<std::string> peers;
        for (const auto& ce : cd.edges()) {
          auto other = ce.other(cd);
          if (other.name() != dev.name()) peers.push_back(other.name());
        }
        std::sort(peers.begin(), peers.end());
        if (peers.size() == 1) {
          iface.peer = peers[0];
          iface.description = dev.name() + " to " + peers[0];
        } else {
          iface.description = dev.name() + " to " + cd.name();
        }

        // Costs/areas from the IGP overlays (p2p links only; LANs keep
        // the defaults).
        if (!iface.peer.empty() && anm.has_overlay("ospf")) {
          auto g_ospf = anm["ospf"];
          auto self = g_ospf.node(dev.name());
          if (self) {
            for (const auto& oe : self->edges()) {
              if (oe.other(*self).name() == iface.peer) {
                if (auto cost = oe.attr("ospf_cost").as_int()) iface.ospf_cost = *cost;
                if (auto area = oe.attr("area").as_int()) iface.area = *area;
                break;
              }
            }
          }
        }
        if (!iface.peer.empty() && anm.has_overlay("isis")) {
          auto g_isis = anm["isis"];
          auto self = g_isis.node(dev.name());
          if (self) {
            for (const auto& ie : self->edges()) {
              if (ie.other(*self).name() == iface.peer) {
                if (auto m = ie.attr("isis_metric").as_int()) iface.isis_metric = *m;
                break;
              }
            }
          }
        }
        ctx.interfaces.push_back(std::move(iface));
      }

      // An `advertise_prefix` origin gets an attached stub network
      // bearing the prefix (the customer LAN the real lab would have):
      // it holds the first host address, produces a connected route, and
      // joins no IGP.
      if (const auto* adv = dev.attr("advertise_prefix").as_string()) {
        if (auto prefix = addressing::Ipv4Prefix::parse(*adv)) {
          ResolvedInterface stub;
          stub.id = data_interface_name(index++);
          stub.collision_domain = "stub_" + ctx.hostname;
          stub.ip = prefix->nth(prefix->length() >= 31 ? 0 : 1).to_string();
          stub.subnet = prefix->to_string();
          stub.prefixlen = prefix->length();
          stub.description = dev.name() + " attached network";
          stub.stub = true;
          ctx.interfaces.push_back(std::move(stub));
        }
      }
    }

    // Syntax: per-node override, servers default to plain Linux.
    std::string syntax = default_syntax();
    if (dev.is_server()) syntax = "linux";
    if (const auto* s = dev.attr("syntax").as_string(); s != nullptr && !s->empty()) {
      syntax = *s;
    }

    nidb::DeviceRecord& rec = nidb.add_device(dev.name());
    device_compiler_for(syntax).compile(ctx, rec);

    // Management (TAP) interface and render destination.
    auto tap = mgmt.allocate();
    Object tap_obj;
    tap_obj["ip"] = tap.address.to_string();
    tap_obj["interface"] = mgmt_interface_name();
    rec.data["tap"] = Value(std::move(tap_obj));

    std::string host = opts.default_host;
    if (const auto* h = dev.attr("host").as_string(); h != nullptr && !h->empty()) {
      host = *h;
    }
    rec.data["host"] = host;
    rec.data.set_path("render.base_dst_folder",
                      host + "/" + platform() + "/" + ctx.hostname);
  }

  // Device-level links: one per point-to-point collision domain, plus a
  // star entry per LAN domain member (paper: the NIDB is a device-level
  // graph based on the phy nodes and edges).
  for (const auto& cd : g_ip.nodes()) {
    if (!cd.attr("collision_domain").truthy()) continue;
    std::vector<std::string> members;
    for (const auto& e : cd.edges()) members.push_back(e.other(cd).name());
    std::sort(members.begin(), members.end());
    const std::string subnet = [&cd]() {
      const auto* s = cd.attr("subnet").as_string();
      return s ? *s : std::string{};
    }();
    auto iface_of = [&nidb, &cd](const std::string& device) -> std::string {
      const nidb::DeviceRecord* rec = nidb.device(device);
      if (rec == nullptr) return "";
      const Value* interfaces = rec->data.find("interfaces");
      const Array* arr = interfaces ? interfaces->as_array() : nullptr;
      if (arr == nullptr) return "";
      for (const Value& i : *arr) {
        const Value* domain = i.find("collision_domain");
        const std::string* s = domain ? domain->as_string() : nullptr;
        if (s != nullptr && *s == cd.name()) {
          const Value* id = i.find("id");
          const std::string* ids = id ? id->as_string() : nullptr;
          return ids ? *ids : "";
        }
      }
      return "";
    };
    if (members.size() == 2) {
      nidb.add_link({members[0], iface_of(members[0]), members[1],
                     iface_of(members[1]), subnet});
    } else {
      for (const auto& m : members) {
        nidb.add_link({m, iface_of(m), cd.name(), "", subnet});
      }
    }
  }

  // Expose device-level links in the network data for network-wide
  // templates (the C-BGP script needs node ids and IGP weights).
  {
    Array links_data;
    for (const auto& link : nidb.links()) {
      Object l;
      l["src"] = link.src_device;
      l["src_int"] = link.src_interface;
      l["dst"] = link.dst_device;
      l["dst_int"] = link.dst_interface;
      l["subnet"] = link.subnet;
      std::int64_t cost = 1;
      auto loopback_and_cost = [&nidb](const std::string& device,
                                       const std::string& iface_id,
                                       std::int64_t& cost_out) -> std::string {
        const nidb::DeviceRecord* rec = nidb.device(device);
        if (rec == nullptr) return "";
        const Value* interfaces = rec->data.find("interfaces");
        const Array* arr = interfaces ? interfaces->as_array() : nullptr;
        if (arr != nullptr) {
          for (const Value& i : *arr) {
            const Value* id = i.find("id");
            const std::string* ids = id ? id->as_string() : nullptr;
            if (ids != nullptr && *ids == iface_id) {
              if (const Value* c = i.find("ospf_cost")) {
                if (auto ci = c->as_int()) cost_out = *ci;
              }
              break;
            }
          }
        }
        const Value* lo = rec->data.find("loopback");
        const std::string* los = lo ? lo->as_string() : nullptr;
        return los ? strip_len(*los) : "";
      };
      l["src_loopback"] = loopback_and_cost(link.src_device, link.src_interface, cost);
      std::int64_t ignored = 1;
      l["dst_loopback"] = loopback_and_cost(link.dst_device, link.dst_interface, ignored);
      l["cost"] = cost;
      links_data.emplace_back(std::move(l));
    }
    nidb.data()["links"] = Value(std::move(links_data));
  }

  // Cross-host links need stitching (paper §5.4: "GRE tunnels between
  // distributed Open vSwitches").
  Array cross;
  int tunnel_id = 0;
  for (const auto& link : nidb.links()) {
    const auto* a = nidb.device(link.src_device);
    const auto* b = nidb.device(link.dst_device);
    if (a == nullptr || b == nullptr) continue;
    const Value* ha = a->data.find("host");
    const Value* hb = b->data.find("host");
    const std::string* sa = ha ? ha->as_string() : nullptr;
    const std::string* sb = hb ? hb->as_string() : nullptr;
    if (sa != nullptr && sb != nullptr && *sa != *sb) {
      Object t;
      t["src_host"] = *sa;
      t["dst_host"] = *sb;
      t["src_device"] = link.src_device;
      t["dst_device"] = link.dst_device;
      t["tunnel"] = "gre" + std::to_string(tunnel_id++);
      t["subnet"] = link.subnet;
      cross.emplace_back(std::move(t));
    }
  }
  nidb.data()["cross_connects"] = Value(std::move(cross));

  platform_data(anm, nidb);
  return nidb;
}

void NetkitCompiler::platform_data(const anm::AbstractNetworkModel& anm,
                                   nidb::Nidb& nidb) const {
  (void)anm;
  // lab.conf: machine[interface]=collision_domain entries, plus TAP.
  Array lab;
  for (const auto* rec : nidb.devices()) {
    const Value* interfaces = rec->data.find("interfaces");
    const Array* arr = interfaces ? interfaces->as_array() : nullptr;
    if (arr == nullptr) continue;
    std::int64_t index = 1;  // eth0 is TAP; data interfaces start at 1
    for (const Value& iface : *arr) {
      Object entry;
      entry["machine"] = rec->name;
      const Value* id = iface.find("id");
      const Value* cd = iface.find("collision_domain");
      entry["interface"] = id ? *id : Value("");
      entry["interface_index"] = index++;
      entry["collision_domain"] = cd ? *cd : Value("");
      lab.emplace_back(std::move(entry));
    }
  }
  nidb.data()["lab_conf"] = Value(std::move(lab));
}

void DynagenCompiler::platform_data(const anm::AbstractNetworkModel& anm,
                                    nidb::Nidb& nidb) const {
  (void)anm;
  // The .net file lists the emulated chassis per router.
  Array routers;
  for (const auto* rec : nidb.routers()) {
    Object r;
    r["name"] = rec->name;
    r["model"] = "7200";
    routers.emplace_back(std::move(r));
  }
  nidb.data()["dynagen_routers"] = Value(std::move(routers));
}

void CbgpPlatformCompiler::platform_data(const anm::AbstractNetworkModel& anm,
                                         nidb::Nidb& nidb) const {
  (void)anm;
  // Distinct ASNs, for the IGP domain declarations in the script.
  std::set<std::int64_t> asns;
  for (const auto* rec : nidb.devices()) {
    const Value* asn = rec->data.find("asn");
    if (asn != nullptr) {
      if (auto v = asn->as_int()) asns.insert(*v);
    }
  }
  Array list;
  for (auto asn : asns) list.emplace_back(asn);
  nidb.data()["asns"] = Value(std::move(list));
}

const PlatformCompiler& platform_compiler_for(std::string_view platform) {
  static const NetkitCompiler netkit;
  static const DynagenCompiler dynagen;
  static const JunosphereCompiler junosphere;
  static const CbgpPlatformCompiler cbgp;
  if (platform == "netkit") return netkit;
  if (platform == "dynagen") return dynagen;
  if (platform == "junosphere") return junosphere;
  if (platform == "cbgp") return cbgp;
  throw std::invalid_argument("no platform compiler for '" + std::string(platform) + "'");
}

}  // namespace autonet::compiler
