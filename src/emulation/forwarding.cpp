#include "emulation/forwarding.hpp"

#include <algorithm>

namespace autonet::emulation {

using addressing::Ipv4Addr;
using addressing::Ipv4Prefix;

const FibEntry* lookup(const std::vector<FibEntry>& fib, Ipv4Addr dst) {
  const FibEntry* best = nullptr;
  for (const auto& entry : fib) {
    if (!entry.prefix.contains(dst)) continue;
    if (best == nullptr) {
      best = &entry;
      continue;
    }
    if (entry.prefix.length() != best->prefix.length()) {
      if (entry.prefix.length() > best->prefix.length()) best = &entry;
      continue;
    }
    const int ad_new = admin_distance(entry.source);
    const int ad_best = admin_distance(best->source);
    if (ad_new != ad_best) {
      if (ad_new < ad_best) best = &entry;
      continue;
    }
    if (entry.metric < best->metric) best = &entry;
  }
  return best;
}

Ipv4Addr router_id(const RouterConfig& cfg) {
  if (cfg.router_id) return *cfg.router_id;
  if (cfg.loopback) return cfg.loopback->address;
  Ipv4Addr best;
  for (const auto& iface : cfg.interfaces) {
    best = std::max(best, iface.address.address);
  }
  return best;
}

bool ospf_covers(const RouterConfig& cfg, const Ipv4Prefix& subnet, std::int64_t* area) {
  if (!cfg.ospf_enabled) return false;
  for (const auto& net : cfg.ospf_networks) {
    if (net.network.contains(subnet)) {
      if (area != nullptr) *area = net.area;
      return true;
    }
  }
  return false;
}

bool owns_address(const RouterConfig& cfg, Ipv4Addr addr) {
  if (cfg.loopback && cfg.loopback->address == addr) return true;
  for (const auto& iface : cfg.interfaces) {
    if (iface.address.address == addr) return true;
  }
  return false;
}

Ipv4Addr session_source(const RouterConfig& cfg, Ipv4Addr peer_addr,
                        bool update_source_loopback) {
  if (!update_source_loopback) {
    for (const auto& iface : cfg.interfaces) {
      if (iface.address.prefix.contains(peer_addr)) return iface.address.address;
    }
  }
  if (cfg.loopback) return cfg.loopback->address;
  return cfg.interfaces.empty() ? Ipv4Addr{} : cfg.interfaces[0].address.address;
}

std::optional<Ipv4Addr> trace_target(const RouterConfig& cfg) {
  if (cfg.loopback) return cfg.loopback->address;
  if (!cfg.interfaces.empty()) return cfg.interfaces[0].address.address;
  return std::nullopt;
}

}  // namespace autonet::emulation
