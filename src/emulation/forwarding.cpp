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

/// Dense ids for 64-bit keys, in first-seen order: linear probing in a
/// power-of-two table that doubles at half load.
class KeyIds {
 public:
  static constexpr std::uint32_t kNone = 0xffffffff;

  /// The id of `key`, a new one when it is new.
  std::uint32_t intern(std::uint64_t key) {
    const std::size_t slot = probe(key);
    if (slots_[slot] != kNone) return slots_[slot];
    const auto id = static_cast<std::uint32_t>(keys_.size());
    slots_[slot] = id;
    keys_.push_back(key);
    if (2 * keys_.size() > slots_.size()) grow();
    return id;
  }
  /// The id of `key`, or kNone.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const { return slots_[probe(key)]; }
  /// Every key, by id.
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const { return keys_; }

 private:
  [[nodiscard]] std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = (key * 0x9e3779b97f4a7c15ull) >> (64 - bits_);
    while (slots_[slot] != kNone && keys_[slots_[slot]] != key) slot = (slot + 1) & mask;
    return slot;
  }
  void grow() {
    ++bits_;
    slots_.assign(std::size_t{1} << bits_, kNone);
    for (std::uint32_t id = 0; id < keys_.size(); ++id) slots_[probe(keys_[id])] = id;
  }

  unsigned bits_ = 4;
  std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(16, kNone);
  std::vector<std::uint64_t> keys_;
};

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

void ColumnBuilder::index(const std::map<std::uint32_t, std::size_t>& by_address) {
  KeyIds addresses;  // by_address_'s index of each address
  by_address_.reserve(by_address.size());
  for (const auto& [address, router] : by_address) {
    addresses.intern(address);
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

  // Intern every FIB entry's prefix, keyed so that key order is longest
  // first, then by network.
  std::size_t entries = 0;
  for (const Router& router : routers_) entries += router.fib->size();
  KeyIds prefixes;
  std::vector<std::uint32_t> prefix;  // of each entry, routers and FIBs in order
  prefix.reserve(entries);
  for (const Router& router : routers_) {
    for (const FibEntry& entry : *router.fib) {
      prefix.push_back(prefixes.intern(std::uint64_t{32 - entry.prefix.length()} << 32 |
                                       entry.prefix.network().value()));
    }
  }
  // Number the prefixes in key order; each length is one run of them.
  const std::vector<std::uint64_t>& keys = prefixes.keys();
  std::vector<std::uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&keys](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });
  std::vector<std::uint32_t> rank(keys.size());
  networks_.reserve(keys.size());
  for (std::uint32_t p = 0; p < order.size(); ++p) {
    rank[order[p]] = p;
    const std::uint64_t key = keys[order[p]];
    const auto length = static_cast<unsigned>(32 - (key >> 32));
    const std::uint32_t mask = Ipv4Prefix(Ipv4Addr{}, length).netmask();
    if (lengths_.empty() || lengths_.back().mask != mask) lengths_.push_back({mask, p, p});
    networks_.push_back(static_cast<std::uint32_t>(key));
    lengths_.back().end = p + 1;
  }

  // Bucket the entries by prefix, keeping routers and FIBs in order, each
  // with its next hop resolved.
  holders_at_.assign(keys.size() + 1, 0);
  for (std::uint32_t& p : prefix) {
    p = rank[p];
    ++holders_at_[p + 1];
  }
  std::partial_sum(holders_at_.begin(), holders_at_.end(), holders_at_.begin());
  std::vector<std::uint32_t> fill(holders_at_.begin(), holders_at_.end() - 1);
  holders_.resize(entries);
  auto entry_prefix = prefix.begin();
  for (std::uint32_t r = 0; r < routers_.size(); ++r) {
    const std::vector<FibEntry>& fib = *routers_[r].fib;
    for (std::uint32_t e = 0; e < fib.size(); ++e) {
      Holder& holder = holders_[fill[*entry_prefix++]++];
      holder = {r, e, kOnLink, {}};
      if (const auto& next_hop = fib[e].next_hop) {
        holder.reply = *next_hop;
        const std::uint32_t id = addresses.find(next_hop->value());
        holder.next = id == KeyIds::kNone ? kUnowned : by_address_[id].second;
      }
    }
  }
  // One holder per router and prefix, with the entry the linear scan
  // picks among that router's entries for it.
  const auto entry_of = [this](const Holder& h) -> const FibEntry& {
    return (*routers_[h.router].fib)[h.entry];
  };
  std::uint32_t kept = 0;
  for (std::size_t p = 0; p + 1 < holders_at_.size(); ++p) {
    const std::uint32_t first = holders_at_[p];
    const std::uint32_t last = holders_at_[p + 1];
    holders_at_[p] = kept;
    for (std::uint32_t h = first; h < last; ++h) {
      const Holder holder = holders_[h];
      if (kept > holders_at_[p] && holders_[kept - 1].router == holder.router) {
        Holder& incumbent = holders_[kept - 1];
        if (preferred(entry_of(holder), entry_of(incumbent))) incumbent = holder;
      } else {
        holders_[kept++] = holder;
      }
    }
  }
  holders_at_.back() = kept;
  holders_.resize(kept);
}

std::uint32_t ColumnBuilder::prefix_of(const Length& length, Ipv4Addr dst) const {
  const auto first = networks_.begin() + length.begin;
  const auto last = networks_.begin() + length.end;
  const std::uint32_t network = dst.value() & length.mask;
  const auto it = std::lower_bound(first, last, network);
  return it != last && *it == network ? static_cast<std::uint32_t>(it - networks_.begin())
                                      : kNone;
}

const FibEntry* ColumnBuilder::lookup(std::size_t router, Ipv4Addr dst) const {
  for (const Length& length : lengths_) {
    const std::uint32_t p = prefix_of(length, dst);
    if (p == kNone) continue;
    const auto first = holders_.begin() + holders_at_[p];
    const auto last = holders_.begin() + holders_at_[p + 1];
    const auto it = std::lower_bound(
        first, last, router, [](const Holder& h, std::size_t r) { return h.router < r; });
    if (it != last && it->router == router) return &(*routers_[router].fib)[it->entry];
  }
  return nullptr;
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

  const std::size_t n = routers_.size();
  column.assign(n, ForwardingCell{});
  owns_.assign(n, 0);
  const auto owners =
      std::equal_range(owners_.begin(), owners_.end(), Owner{dst.value(), 0}, by_key);
  for (auto it = owners.first; it != owners.second; ++it) owns_[it->second] = 1;
  // On-link routes deliver to the owner of dst itself.
  const auto dst_owner = std::lower_bound(by_address_.begin(), by_address_.end(),
                                          Owner{dst.value(), 0}, by_key);
  const std::uint32_t on_link =
      dst_owner != by_address_.end() && dst_owner->first == dst.value() ? dst_owner->second
                                                                        : kUnowned;

  // Each router's longest match: the holders of the prefixes containing
  // dst, shortest prefix first, so that a longer one overwrites.
  route_.assign(n, nullptr);
  for (auto length = lengths_.rbegin(); length != lengths_.rend(); ++length) {
    const std::uint32_t p = prefix_of(*length, dst);
    if (p == kNone) continue;
    for (std::uint32_t h = holders_at_[p]; h < holders_at_[p + 1]; ++h) {
      route_[holders_[h].router] = &holders_[h];
    }
  }

  // Each router's own step towards dst.
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
    const Holder* route = route_[r];
    const std::uint32_t next =
        route == nullptr ? kUnowned : route->next == kOnLink ? on_link : route->next;
    if (next == kUnowned) {
      settle(cell, 0, WalkEnd::kDropped);
      continue;
    }
    cell.next = next;
    if (routers_[next].down) {
      settle(cell, 0, WalkEnd::kDown);
    } else if (owns_[next] != 0) {
      cell.reply = dst;
      settle(cell, 1, WalkEnd::kReached);
    } else {
      cell.reply = route->next == kOnLink ? dst : route->reply;
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
