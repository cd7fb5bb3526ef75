#include "measure/client.hpp"

namespace autonet::measure {

std::vector<CommandResult> MeasurementClient::send(
    const std::vector<std::string>& hosts, const std::string& command,
    const TextFsm& parser) const {
  std::vector<CommandResult> results;
  results.reserve(hosts.size());
  for (const auto& host : hosts) {
    CommandResult r;
    r.host = host;
    // One unreachable VM must not abort a whole measurement sweep
    // (§5.7 collects from many machines): record a typed error and
    // carry on.
    try {
      r.raw_output = network_->exec(host, command);
      r.records = parser.run(r.raw_output);
    } catch (const std::exception& e) {
      r.error = core::Error{core::ErrorCategory::kMeasurement, host, e.what(),
                            false};
    }
    results.push_back(std::move(r));
  }
  return results;
}

std::string MeasurementClient::device_for_ip(const std::string& ip) const {
  if (auto device = nidb_->device_for_ip(ip)) return *device;
  // Fall back to the running network's address table (covers addresses
  // the NIDB does not track).
  if (auto addr = addressing::Ipv4Addr::parse(ip)) {
    if (auto owner = network_->owner_of(*addr)) return *owner;
  }
  return "";
}

std::int64_t MeasurementClient::asn_of(const std::string& device) const {
  const nidb::DeviceRecord* rec = nidb_->device(device);
  if (rec == nullptr) return 0;
  const nidb::Value* asn = rec->data.find("asn");
  if (asn == nullptr) return 0;
  return asn->as_int().value_or(0);
}

TraceResult MeasurementClient::traceroute(const std::string& src,
                                          const std::string& dst) const {
  TraceResult out;
  out.source = src;
  // Accept either an address or an emulated hostname (resolved to its
  // loopback, as DNS would).
  std::string dst_ip = dst;
  if (!addressing::Ipv4Addr::parse(dst)) {
    const auto* target = network_->router(dst);
    if (target != nullptr && target->config().loopback) {
      dst_ip = target->config().loopback->address.to_string();
    }
  }
  out.target_ip = dst_ip;

  const std::string raw = network_->exec(src, "traceroute -naU " + dst_ip);
  auto records = TextFsm::traceroute_template().run(raw);

  out.node_path.push_back(src);
  for (const auto& rec : records) {
    auto it = rec.find("IP");
    if (it == rec.end() || it->second.empty()) continue;
    out.hop_ips.push_back(it->second);
    std::string device = device_for_ip(it->second);
    if (!device.empty() &&
        (out.node_path.empty() || out.node_path.back() != device)) {
      out.node_path.push_back(device);
    }
  }
  // Reached when the final hop resolves to the address owner.
  out.reached = !out.hop_ips.empty() && out.hop_ips.back() == dst_ip;
  if (!out.reached && !out.hop_ips.empty()) {
    // Target may answer from a different interface; accept when the
    // device owning dst_ip is the last node.
    std::string target_device = device_for_ip(dst_ip);
    out.reached = !target_device.empty() && out.node_path.back() == target_device;
  }

  for (const auto& node : out.node_path) {
    std::int64_t asn = asn_of(node);
    if (asn != 0 && (out.as_path.empty() || out.as_path.back() != asn)) {
      out.as_path.push_back(asn);
    }
  }
  return out;
}

std::vector<TraceResult> MeasurementClient::traceroute_all(
    const std::string& dst_ip) const {
  std::vector<TraceResult> out;
  for (const auto& name : network_->router_names()) {
    out.push_back(traceroute(name, dst_ip));
  }
  return out;
}

}  // namespace autonet::measure
