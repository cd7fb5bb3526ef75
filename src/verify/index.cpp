#include "verify/index.hpp"

#include <algorithm>
#include <tuple>

namespace autonet::verify::detail {

using nidb::Array;
using nidb::DeviceRecord;
using nidb::Value;

namespace {

std::string strip_len(std::string addr) {
  if (auto slash = addr.find('/'); slash != std::string::npos) addr.resize(slash);
  return addr;
}

const std::string* find_string(const Value& v, std::string_view path) {
  const Value* f = v.find_path(path);
  return f != nullptr ? f->as_string() : nullptr;
}

std::int64_t find_int(const Value& v, std::string_view path, std::int64_t fallback) {
  const Value* f = v.find_path(path);
  if (f == nullptr) return fallback;
  return f->as_int().value_or(fallback);
}

}  // namespace

std::string NeighborRef::path() const {
  return std::string("bgp.") + (ibgp ? "ibgp_neighbors" : "ebgp_neighbors") + "[" +
         std::to_string(index) + "]";
}

NidbIndex NidbIndex::build(const nidb::Nidb& nidb) {
  NidbIndex index;

  if (const std::string* mode = find_string(nidb.data(), "design.ibgp_mode")) {
    index.ibgp_mode = *mode;
  }

  for (const DeviceRecord* rec : nidb.devices()) {
    const Value& d = rec->data;
    index.device_asn[rec->name] = find_int(d, "asn", 0);
    if (const std::string* type = find_string(d, "device_type")) {
      index.device_type[rec->name] = *type;
    }
    if (const std::string* hostname = find_string(d, "hostname")) {
      index.hostname_users[*hostname].push_back(rec->name);
    }

    auto claim_address = [&](const std::string& with_len, std::string path) {
      std::string ip = strip_len(with_len);
      auto [it, inserted] = index.address_owner.emplace(ip, rec->name);
      if (!inserted && it->second != rec->name) {
        index.duplicate_addresses.push_back(
            {ip, rec->name, it->second, std::move(path)});
      }
      index.owned[rec->name].insert(ip);
    };
    if (const std::string* lo = find_string(d, "loopback")) {
      index.device_loopback[rec->name] = strip_len(*lo);
      claim_address(*lo, "loopback");
    }

    // OSPF coverage: which networks this device's process covers, and in
    // which area (for per-subnet consistency and next-hop resolution).
    std::map<std::string, std::int64_t> covered;
    if (const Value* links = d.find_path("ospf.ospf_links")) {
      if (const Array* arr = links->as_array()) {
        for (const Value& link : *arr) {
          const std::string* network =
              link.find("network") != nullptr ? link.find("network")->as_string()
                                              : nullptr;
          if (network != nullptr) {
            const Value* area = link.find("area");
            covered[*network] = area != nullptr ? area->as_int().value_or(0) : 0;
            auto& parsed = index.ospf_covered[rec->name];
            if (auto p = addressing::Ipv4Prefix::parse(*network)) parsed.push_back(*p);
          }
        }
      }
    }

    const std::size_t first_interface = index.interfaces.size();
    if (const Value* ifaces = d.find("interfaces")) {
      if (const Array* arr = ifaces->as_array()) {
        for (std::size_t i = 0; i < arr->size(); ++i) {
          const Value& iface = (*arr)[i];
          const std::string* ip = iface.find("ip_address") != nullptr
                                      ? iface.find("ip_address")->as_string()
                                      : nullptr;
          const std::string* subnet = iface.find("subnet") != nullptr
                                          ? iface.find("subnet")->as_string()
                                          : nullptr;
          if (ip == nullptr || subnet == nullptr) continue;
          // Attached stub networks (`advertise_prefix` origins) are
          // anycast by design: the same prefix may be originated at
          // several points, so stub addresses claim no ownership.
          const Value* stub = iface.find("stub");
          if (stub == nullptr || !stub->truthy()) {
            claim_address(*ip, "interfaces[" + std::to_string(i) + "].ip_address");
          }
          index.interfaces.push_back(
              {rec->name, strip_len(*ip), addressing::Ipv4Prefix::parse(*subnet), i});
          auto it = covered.find(*subnet);
          index.subnet_attachments[*subnet].push_back(
              {rec->name, it == covered.end() ? -1 : it->second});
        }
      }
    }

    if (index.interfaces.size() > first_interface) {
      index.interface_range[rec->name] = {first_interface, index.interfaces.size()};
    }

    for (const bool ibgp : {true, false}) {
      const Value* list =
          d.find_path(ibgp ? "bgp.ibgp_neighbors" : "bgp.ebgp_neighbors");
      const Array* arr = list != nullptr ? list->as_array() : nullptr;
      if (arr == nullptr) continue;
      for (std::size_t i = 0; i < arr->size(); ++i) {
        const Value& n = (*arr)[i];
        NeighborRef ref;
        ref.device = rec->name;
        ref.ibgp = ibgp;
        ref.index = i;
        if (const std::string* ip = n.find("neighbor") != nullptr
                                        ? n.find("neighbor")->as_string()
                                        : nullptr) {
          ref.neighbor_ip = *ip;
        }
        if (const Value* remote = n.find("remote_as")) {
          ref.remote_as = remote->as_int().value_or(0);
        }
        if (const Value* rr = n.find("rr_client")) ref.rr_client = rr->truthy();
        if (const Value* mh = n.find("multihop")) ref.multihop = mh->truthy();
        index.neighbors.push_back(std::move(ref));
      }
    }
  }

  index.statements_by_device.resize(index.neighbors.size());
  for (std::uint32_t i = 0; i < index.neighbors.size(); ++i) {
    index.statements_by_device[i] = i;
  }
  std::ranges::sort(index.statements_by_device, [&](std::uint32_t a, std::uint32_t b) {
    const NeighborRef& x = index.neighbors[a];
    const NeighborRef& y = index.neighbors[b];
    return std::tie(x.device, x.neighbor_ip) < std::tie(y.device, y.neighbor_ip);
  });

  // Derive the iBGP session view from the gathered neighbor statements:
  // directed statement edges device -> peer (neighbor loopback resolved
  // to its owner, same-AS only), then keep the bidirectional ones.
  std::map<std::string, std::set<std::string>> stated;
  std::map<std::pair<std::string, std::string>, bool> client_edge;
  std::set<std::int64_t> active_as;  // ASes with any iBGP configured
  for (const auto& n : index.neighbors) {
    if (!n.ibgp || n.neighbor_ip.empty()) continue;
    auto owner = index.address_owner.find(n.neighbor_ip);
    if (owner == index.address_owner.end()) continue;  // bgp-unknown-peer
    const std::string& peer = owner->second;
    auto as_a = index.device_asn.find(n.device);
    auto as_b = index.device_asn.find(peer);
    if (as_a == index.device_asn.end() || as_b == index.device_asn.end() ||
        as_a->second != as_b->second) {
      continue;  // bgp-wrong-as territory
    }
    stated[n.device].insert(peer);
    if (n.rr_client) client_edge[{n.device, peer}] = true;
    active_as.insert(as_a->second);
  }
  // Every router of an AS that runs iBGP is a member — including one
  // with no sessions at all, which is exactly a partition.
  for (const auto& [device, asn] : index.device_asn) {
    if (!active_as.contains(asn)) continue;
    auto type = index.device_type.find(device);
    if (type != index.device_type.end() && type->second == "router") {
      index.ibgp.members[asn].insert(device);
    }
  }
  for (const auto& [device, peers] : stated) {
    for (const auto& peer : peers) {
      auto back = stated.find(peer);
      if (back != stated.end() && back->second.contains(device)) {
        index.ibgp.sessions[device].insert(peer);
      }
      if (client_edge.contains({device, peer})) {
        index.ibgp.clients_of[device].insert(peer);
      }
    }
  }
  return index;
}

bool NidbIndex::has_statement(std::string_view device,
                              std::string_view neighbor_ip) const {
  using Key = std::pair<std::string_view, std::string_view>;
  auto it = std::lower_bound(
      statements_by_device.begin(), statements_by_device.end(),
      Key(device, neighbor_ip), [this](std::uint32_t pos, const Key& key) {
        return Key(neighbors[pos].device, neighbors[pos].neighbor_ip) < key;
      });
  return it != statements_by_device.end() && neighbors[*it].device == device &&
         neighbors[*it].neighbor_ip == neighbor_ip;
}

std::span<const InterfaceRef> NidbIndex::interfaces_of(std::string_view device) const {
  auto it = interface_range.find(device);
  if (it == interface_range.end()) return {};
  return std::span(interfaces).subspan(it->second.first,
                                       it->second.second - it->second.first);
}

}  // namespace autonet::verify::detail
