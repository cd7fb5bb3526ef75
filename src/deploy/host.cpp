#include "deploy/host.hpp"

#include "deploy/archive.hpp"

namespace autonet::deploy {

bool EmulationHost::receive(std::string blob) {
  if (!online()) return false;
  if (corrupt_next_ && blob.size() > 16) {
    blob.resize(blob.size() / 2);  // truncated transfer
    corrupt_next_ = false;
  } else if (faults_ != nullptr && blob.size() > 16 &&
             faults_->corrupt_transfer(name_)) {
    blob.resize(blob.size() / 2);
  }
  inbox_ = std::move(blob);
  return true;
}

bool EmulationHost::extract() {
  if (!online()) return false;
  try {
    fs_ = unpack(inbox_);
    return true;
  } catch (const ArchiveError&) {
    return false;
  }
}

bool EmulationHost::try_boot(const std::string& machine) {
  if (!online()) return false;
  if (boot_failures_.contains(machine)) return false;
  if (faults_ != nullptr && faults_->fail_machine_boot(name_, machine)) {
    return false;
  }
  return true;
}

std::vector<std::string> EmulationHost::assigned_machines(
    const nidb::Nidb& nidb) const {
  std::vector<std::string> out;
  for (const auto* rec : nidb.devices()) {
    const nidb::Value* host = rec->data.find("host");
    const std::string* host_name = host ? host->as_string() : nullptr;
    if (host_name != nullptr && *host_name == name_) out.push_back(rec->name);
  }
  return out;
}

const emulation::ConvergenceReport& EmulationHost::start_network(
    const nidb::Nidb& nidb, const render::ConfigTree& configs,
    const std::set<std::string>& machines, core::RunControl* control) {
  network_ = std::make_unique<emulation::EmulatedNetwork>(
      emulation::EmulatedNetwork::from_nidb(
          nidb, configs, machines.empty() ? nullptr : &machines));
  convergence_ = network_->start(128, control);
  return convergence_;
}

}  // namespace autonet::deploy
