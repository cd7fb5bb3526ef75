#include "emulation/forwarding.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace autonet::emulation {

using addressing::Ipv4Addr;
using addressing::Ipv4Prefix;

namespace {

/// The tie-break between two entries for prefixes of one length: lower
/// admin distance, then strictly lower metric, so the first best entry in
/// FIB order wins.
bool preferred(const FibEntry& challenger, const FibEntry& incumbent) {
  const int ad_new = admin_distance(challenger.source);
  const int ad_best = admin_distance(incumbent.source);
  if (ad_new != ad_best) return ad_new < ad_best;
  return challenger.metric < incumbent.metric;
}

}  // namespace

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
    if (preferred(entry, *best)) best = &entry;
  }
  return best;
}

CompiledFib::CompiledFib(const std::vector<FibEntry>& fib) : fib_(fib.data()) {
  // Longest prefix first, then by network, then in FIB order, so that
  // the entries for one prefix meet the tie-break in the order the linear
  // scan meets them.
  std::vector<std::uint32_t> order(fib.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&fib](std::uint32_t a, std::uint32_t b) {
    const Ipv4Prefix& pa = fib[a].prefix;
    const Ipv4Prefix& pb = fib[b].prefix;
    if (pa.length() != pb.length()) return pa.length() > pb.length();
    if (pa.network() != pb.network()) return pa.network() < pb.network();
    return a < b;
  });
  networks_.reserve(order.size());
  entries_.reserve(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::uint32_t i = order[k];
    const Ipv4Prefix& prefix = fib[i].prefix;
    if (k == 0 || prefix.length() != fib[order[k - 1]].prefix.length()) {
      lengths_.push_back({prefix.netmask(), 0});
    } else if (networks_.back() == prefix.network().value()) {
      if (preferred(fib[i], fib[entries_.back()])) entries_.back() = i;
      continue;
    }
    networks_.push_back(prefix.network().value());
    entries_.push_back(i);
    lengths_.back().end = static_cast<std::uint32_t>(networks_.size());
  }
}

const FibEntry* CompiledFib::lookup(Ipv4Addr dst) const {
  auto first = networks_.begin();
  for (const Length& length : lengths_) {
    const auto last = networks_.begin() + length.end;
    const std::uint32_t key = dst.value() & length.mask;
    const auto it = std::lower_bound(first, last, key);
    if (it != last && *it == key) return fib_ + entries_[it - networks_.begin()];
    first = last;
  }
  return nullptr;
}

void ColumnBuilder::index_addresses(
    const std::map<std::uint32_t, std::size_t>& by_address) {
  by_address_.reserve(by_address.size());
  for (const auto& [address, router] : by_address) {
    by_address_.emplace_back(address, static_cast<std::uint32_t>(router));
  }
  for (std::uint32_t r = 0; r < routers_.size(); ++r) {
    const RouterConfig& cfg = *routers_[r].config;
    if (cfg.loopback) owners_.emplace_back(cfg.loopback->address.value(), r);
    for (const auto& iface : cfg.interfaces) {
      owners_.emplace_back(iface.address.address.value(), r);
    }
  }
  std::sort(owners_.begin(), owners_.end());
}

void ColumnBuilder::build(Ipv4Addr dst, int max_ttl,
                          std::vector<ForwardingCell>& column) {
  if (max_ttl > 0xffff) {
    throw std::invalid_argument("forwarding column: max_ttl above 65535");
  }
  // A walk answers at most `ttl` hops: a reached destination may be the
  // ttl-th hop, a drop must come before it.
  const auto ttl = static_cast<std::uint32_t>(std::max(max_ttl, 0));
  const auto settle = [ttl](ForwardingCell& cell, std::uint32_t hops, WalkEnd end) {
    const bool in_time = end == WalkEnd::kReached ? hops <= ttl : hops < ttl;
    if (end == WalkEnd::kTtlExceeded || !in_time) {
      cell.hops = static_cast<std::uint16_t>(ttl);
      cell.end = WalkEnd::kTtlExceeded;
    } else {
      cell.hops = static_cast<std::uint16_t>(hops);
      cell.end = end;
    }
  };
  const auto by_key = [](const Owner& a, const Owner& b) { return a.first < b.first; };
  const auto owner = [this, by_key](Ipv4Addr address) -> const Owner* {
    const auto it = std::lower_bound(by_address_.begin(), by_address_.end(),
                                     Owner{address.value(), 0}, by_key);
    return it != by_address_.end() && it->first == address.value() ? &*it : nullptr;
  };

  const std::size_t n = routers_.size();
  column.assign(n, ForwardingCell{});
  owns_.assign(n, 0);
  const auto owners =
      std::equal_range(owners_.begin(), owners_.end(), Owner{dst.value(), 0}, by_key);
  for (auto it = owners.first; it != owners.second; ++it) owns_[it->second] = 1;

  // One lookup per router: its own step towards dst.
  enum : std::uint8_t { kSettled, kForwards, kOnChain };
  state_.assign(n, kSettled);
  for (std::uint32_t r = 0; r < n; ++r) {
    ForwardingCell& cell = column[r];
    cell.next = r;
    if (routers_[r].down) {
      cell.end = WalkEnd::kDown;
      continue;
    }
    if (owns_[r] != 0) {
      cell.reply = dst;
      cell.hops = 1;
      cell.end = WalkEnd::kReached;
      continue;
    }
    const FibEntry* route = routers_[r].fib.lookup(dst);
    // On-link routes deliver to the owner of dst itself.
    const Ipv4Addr target =
        route != nullptr && route->next_hop ? *route->next_hop : dst;
    const Owner* next = route != nullptr ? owner(target) : nullptr;
    if (next == nullptr) {
      settle(cell, 0, WalkEnd::kDropped);
      continue;
    }
    cell.next = next->second;
    if (routers_[cell.next].down) {
      settle(cell, 0, WalkEnd::kDown);
    } else if (owns_[cell.next] != 0) {
      cell.reply = dst;
      settle(cell, 1, WalkEnd::kReached);
    } else {
      cell.reply = target;
      state_[r] = kForwards;
    }
  }

  // Routers that forward take their outcome from the next router, one
  // more hop away; a chain that comes back on itself is a cycle.
  for (std::uint32_t r = 0; r < n; ++r) {
    if (state_[r] != kForwards) continue;
    chain_.clear();
    std::uint32_t at = r;
    while (state_[at] == kForwards) {
      state_[at] = kOnChain;
      chain_.push_back(at);
      at = column[at].next;
    }
    const bool cycle = state_[at] == kOnChain;
    for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
      ForwardingCell& cell = column[*it];
      const ForwardingCell& next = column[cell.next];
      if (cycle) {
        settle(cell, 0, WalkEnd::kTtlExceeded);
      } else {
        settle(cell, next.hops + 1u, next.end);
      }
      state_[*it] = kSettled;
    }
  }
}

WalkOutcome column_outcome(std::span<const ForwardingCell> column, std::size_t src) {
  std::size_t at = src;
  column_walk(column, src, [&at](std::size_t r, Ipv4Addr) { at = r; });
  const WalkEnd end = column[src].end;
  if (end == WalkEnd::kDown) at = column[at].next;
  return {end, at};
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
