// Internal to the verify engine: the shared gather pass over the NIDB.
// Built once per run_lint() invocation, then handed read-only to every
// rule, so adding a rule does not add another database walk.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "addressing/ipv4.hpp"
#include "nidb/nidb.hpp"

namespace autonet::verify::detail {

struct InterfaceRef {
  std::string device;
  std::string ip;  // bare address
  std::optional<addressing::Ipv4Prefix> subnet;  // nullopt when it does not parse
  std::size_t index = 0;  // position in the device's interfaces array
};

struct NeighborRef {
  std::string device;
  std::string neighbor_ip;  // bare address ("" when the statement is empty)
  std::int64_t remote_as = 0;
  bool ibgp = false;
  bool rr_client = false;  // this device treats the peer as an RR client
  bool multihop = false;   // session deliberately targets a non-adjacent
                           // address (e.g. C-BGP node-id peering)
  std::size_t index = 0;   // position in the neighbor array
  /// NIDB attribute path of the statement, e.g. "bgp.ibgp_neighbors[2]".
  [[nodiscard]] std::string path() const;
};

struct SubnetAttachment {
  std::string device;
  /// OSPF area this device's process covers the subnet in; -1 = the
  /// device does not run OSPF on it.
  std::int64_t area = -1;
};

struct DuplicateAddress {
  std::string ip;
  std::string device;  // second claimer
  std::string owner;   // first claimer
  std::string path;    // where the second claim came from
};

/// The per-AS iBGP session view shared by the signaling rules: built in
/// the same gather pass as the rest of the index so the rules that read
/// it (partition, cluster loops) do not each rebuild it.
struct IbgpView {
  /// AS -> member routers (device_type "router") that appear in it.
  std::map<std::int64_t, std::set<std::string>> members;
  /// Established sessions: both ends carry a statement for the other.
  std::map<std::string, std::set<std::string>> sessions;
  /// device -> peers it treats as route-reflector clients.
  std::map<std::string, std::set<std::string>> clients_of;
};

struct NidbIndex {
  std::map<std::string, std::string> address_owner;  // bare ip -> device
  std::map<std::string, std::set<std::string>> owned;  // device -> bare ips
  std::vector<InterfaceRef> interfaces;
  std::vector<NeighborRef> neighbors;
  std::map<std::string, std::vector<std::string>> hostname_users;
  std::map<std::string, std::int64_t> device_asn;
  std::map<std::string, std::string> device_type;
  std::map<std::string, std::string> device_loopback;  // bare address
  std::map<std::string, std::vector<SubnetAttachment>> subnet_attachments;
  /// device -> the networks its OSPF process covers (ospf_links). A
  /// device with any network statement has an entry; networks that do
  /// not parse are left out of it.
  std::map<std::string, std::vector<addressing::Ipv4Prefix>> ospf_covered;
  std::vector<DuplicateAddress> duplicate_addresses;
  /// From nidb.data()["design"]["ibgp_mode"], "" when absent.
  std::string ibgp_mode;
  /// iBGP session graph, derived from `neighbors` after the walk.
  IbgpView ibgp;
  /// Positions in `neighbors`, sorted by (device, neighbor_ip): the
  /// lookup behind has_statement().
  std::vector<std::uint32_t> statements_by_device;
  /// device -> its [begin, end) in `interfaces`, which the walk appends
  /// device by device.
  std::map<std::string, std::pair<std::size_t, std::size_t>, std::less<>>
      interface_range;

  [[nodiscard]] static NidbIndex build(const nidb::Nidb& nidb);

  /// Whether `device` has a neighbor statement naming `neighbor_ip`.
  [[nodiscard]] bool has_statement(std::string_view device,
                                   std::string_view neighbor_ip) const;
  /// The interfaces gathered from `device`, in NIDB order.
  [[nodiscard]] std::span<const InterfaceRef> interfaces_of(
      std::string_view device) const;
};

}  // namespace autonet::verify::detail
