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
    // The extracted tree is the one copy kept.
    std::string().swap(inbox_);
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

}  // namespace autonet::deploy
