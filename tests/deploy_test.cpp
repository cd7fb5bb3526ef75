#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/hash.hpp"
#include "core/workflow.hpp"
#include "deploy/archive.hpp"
#include "deploy/deployer.hpp"
#include "deploy/faults.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "topology/builtin.hpp"

namespace {

using namespace autonet;
using namespace autonet::deploy;

render::ConfigTree sample_tree() {
  render::ConfigTree tree;
  tree.put("lab.conf", "LAB_VERSION=1\n");
  tree.put("r1/etc/quagga/zebra.conf", "hostname r1\n");
  tree.put("r1/.startup", "/sbin/ifconfig eth1 up\n");
  tree.put("binary", std::string("\x00\x01\xff\x7f", 4));
  return tree;
}

TEST(Archive, PackUnpackRoundTrip) {
  auto tree = sample_tree();
  auto blob = pack(tree);
  auto restored = unpack(blob);
  EXPECT_EQ(restored, tree);
}

TEST(Archive, EmptyTree) {
  render::ConfigTree tree;
  EXPECT_EQ(unpack(pack(tree)), tree);
}

TEST(Archive, DetectsCorruption) {
  auto blob = pack(sample_tree());
  // Flip a payload byte.
  blob[blob.size() - 1] ^= 0x5A;
  EXPECT_THROW(unpack(blob), ArchiveError);
  // Truncation.
  EXPECT_THROW(unpack(blob.substr(0, blob.size() / 2)), ArchiveError);
  // Not an archive at all.
  EXPECT_THROW(unpack("hello world, definitely not an archive"), ArchiveError);
}

TEST(Archive, ChecksumIsStable) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
}

class DeployFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    wf_ = std::make_unique<core::Workflow>();
    wf_->load(autonet::topology::figure5()).design().compile().render();
  }
  std::unique_ptr<core::Workflow> wf_;
};

TEST_F(DeployFixture, SuccessfulDeployment) {
  EmulationHost host("emuhost1");
  Deployer deployer({&host});
  auto result = deployer.deploy(wf_->configs(), wf_->nidb());
  const std::vector<DeployEvent>& events = deployer.events();
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.booted.size(), 5u);
  EXPECT_EQ(result.transfer_attempts, 1);
  EXPECT_TRUE(result.convergence.converged);
  ASSERT_NE(deployer.network(), nullptr);
  EXPECT_EQ(deployer.network()->router_count(), 5u);
  // Phases appear in order.
  ASSERT_GE(events.size(), 4u);
  EXPECT_EQ(events.front().phase, DeployPhase::kArchive);
  EXPECT_EQ(events.back().phase, DeployPhase::kStarted);
  // Host filesystem holds the extracted configs.
  EXPECT_TRUE(host.filesystem().contains("lab.conf"));
}

TEST_F(DeployFixture, TransferCorruptionRetries) {
  EmulationHost host("flaky");
  host.corrupt_next_transfer();
  Deployer deployer({&host});
  auto result = deployer.deploy(wf_->configs(), wf_->nidb());
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.transfer_attempts, 2);
  // The log records the retry.
  bool saw_retry = false;
  for (const auto& line : deployer.log()) {
    if (line.find("retrying") != std::string::npos) saw_retry = true;
  }
  EXPECT_TRUE(saw_retry);
}

TEST_F(DeployFixture, TransferBudgetExhaustedFails) {
  EmulationHost host("dead");
  host.corrupt_next_transfer();
  DeployOptions opts;
  opts.max_transfer_attempts = 1;  // the one corrupted attempt is all we get
  Deployer deployer({&host});
  auto result = deployer.deploy(wf_->configs(), wf_->nidb(), opts);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.transfer_attempts, 1);
  EXPECT_EQ(deployer.network(), nullptr);
  bool saw_exhausted = false;
  for (const auto& line : deployer.log()) {
    if (line.starts_with("retries-exhausted:")) saw_exhausted = true;
  }
  EXPECT_TRUE(saw_exhausted);
}

TEST_F(DeployFixture, BootFailureReported) {
  EmulationHost host("partial");
  host.fail_boot_of("r3");
  Deployer deployer({&host});
  auto result = deployer.deploy(wf_->configs(), wf_->nidb());
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.failed_machines, std::vector<std::string>{"r3"});
  EXPECT_EQ(result.booted.size(), 4u);
  EXPECT_EQ(deployer.network(), nullptr);  // lab did not start
  // Recovery: clear and redeploy.
  host.clear_boot_failures();
  auto retry = deployer.deploy(wf_->configs(), wf_->nidb());
  EXPECT_TRUE(retry.success);
}

TEST_F(DeployFixture, LogNarratesMachineBoots) {
  EmulationHost host("verbose");
  Deployer deployer({&host});
  deployer.deploy(wf_->configs(), wf_->nidb());
  std::size_t boot_lines = 0;
  for (const auto& line : deployer.log()) {
    if (line.starts_with("boot:")) ++boot_lines;
  }
  EXPECT_EQ(boot_lines, 5u);
}

// --- One host, every path: the pinned reference ---------------------------

/// One deploy onto a lone host as text: every event with the host its
/// flight-recorder record names, every DeployResult field, the started
/// network and the fault plan's audit trail.
std::string transcript(const Deployer& deployer, const DeployResult& r,
                       const emulation::EmulatedNetwork* network,
                       const FaultPlan& plan, obs::Registry& registry) {
  std::string out;
  std::vector<std::string> recorded;
  for (const obs::RecorderEvent& e : registry.recorder().drain()) {
    if (e.category != "deploy") continue;
    std::string host = "-";
    std::string detail;
    for (const auto& [key, value] : e.fields) {
      if (key == "host") host = value;
      if (key == "detail") detail = value;
    }
    recorded.push_back(e.name + ": " + detail);
    out += e.name + " @" + host + ": " + detail + "\n";
  }
  EXPECT_EQ(recorded, deployer.log());
  const auto list = [](const std::vector<std::string>& items) {
    std::string text;
    for (const std::string& item : items) text += " " + item;
    return text;
  };
  out += "success=" + std::to_string(r.success) +
         " degraded=" + std::to_string(r.degraded) +
         " transfer_attempts=" + std::to_string(r.transfer_attempts) +
         " boot_attempts=" + std::to_string(r.boot_attempts) +
         " backoff_ms=" + std::to_string(r.backoff_ms) + "\n";
  out += "booted:" + list(r.booted) + "\nfailed:" + list(r.failed_machines) + "\n";
  const emulation::ConvergenceReport& c = r.convergence;
  out += "convergence: converged=" + std::to_string(c.converged) +
         " oscillating=" + std::to_string(c.oscillating) +
         " rounds=" + std::to_string(c.rounds) +
         " period=" + std::to_string(c.period) +
         " updates=" + std::to_string(c.updates) +
         " timeout=" + (c.timeout ? c.timeout->to_string() : "none") + "\n";
  for (const core::Error& e : r.errors) out += "error " + e.to_string() + "\n";
  out += "network: " +
         (network == nullptr ? std::string("none")
                             : std::to_string(network->router_count()) + " routers") +
         "\ninjected:" + list(plan.injected()) + "\n";
  return out;
}

struct OneHostRow {
  const char* name;
  std::function<void(FaultPlan&, DeployOptions&, core::RunControl&)> setup;
  const char* expected;
};

TEST_F(DeployFixture, OneHostEveryPathPinned) {
  const OneHostRow rows[] = {
      {"success",
       [](FaultPlan&, DeployOptions&, core::RunControl&) {},
       R"(
archive @emuhost: 46 files, 6337 bytes
transfer @emuhost: autonet@emuhost attempt 1
extract @emuhost: archive verified and extracted
boot @emuhost: r1 up
boot @emuhost: r2 up
boot @emuhost: r3 up
boot @emuhost: r4 up
boot @emuhost: r5 up
started @emuhost: 5 machines, BGP converged in 4 rounds
success=1 degraded=0 transfer_attempts=1 boot_attempts=5 backoff_ms=0
booted: r1 r2 r3 r4 r5
failed:
convergence: converged=1 oscillating=0 rounds=4 period=0 updates=38 timeout=none
network: 5 routers
injected:
)"},
      {"corrupt transfer, retried",
       [](FaultPlan& plan, DeployOptions&, core::RunControl&) {
         plan.fail_transfers("emuhost", 1);
       },
       R"(
archive @emuhost: 46 files, 6337 bytes
transfer @emuhost: autonet@emuhost attempt 1
extract @emuhost: checksum mismatch, retrying
transfer @emuhost: backoff 53ms
transfer @emuhost: autonet@emuhost attempt 2
extract @emuhost: archive verified and extracted
boot @emuhost: r1 up
boot @emuhost: r2 up
boot @emuhost: r3 up
boot @emuhost: r4 up
boot @emuhost: r5 up
started @emuhost: 5 machines, BGP converged in 4 rounds
success=1 degraded=0 transfer_attempts=2 boot_attempts=5 backoff_ms=53
booted: r1 r2 r3 r4 r5
failed:
convergence: converged=1 oscillating=0 rounds=4 period=0 updates=38 timeout=none
error [transfer] emuhost: checksum mismatch on attempt 1 (retryable)
network: 5 routers
injected: transfer-fault emuhost
)"},
      {"transfer budget spent",
       [](FaultPlan& plan, DeployOptions&, core::RunControl&) {
         plan.fail_transfers("emuhost", 3);
       },
       R"(
archive @emuhost: 46 files, 6337 bytes
transfer @emuhost: autonet@emuhost attempt 1
extract @emuhost: checksum mismatch, retrying
transfer @emuhost: backoff 53ms
transfer @emuhost: autonet@emuhost attempt 2
extract @emuhost: checksum mismatch, retrying
transfer @emuhost: backoff 181ms
transfer @emuhost: autonet@emuhost attempt 3
extract @emuhost: checksum mismatch, retrying
retries-exhausted @emuhost: transfer failed after 3 attempts
success=0 degraded=0 transfer_attempts=3 boot_attempts=0 backoff_ms=234
booted:
failed: r1 r2 r3 r4 r5
convergence: converged=0 oscillating=0 rounds=0 period=0 updates=0 timeout=none
error [transfer] emuhost: checksum mismatch on attempt 1 (retryable)
error [transfer] emuhost: checksum mismatch on attempt 2 (retryable)
error [transfer] emuhost: checksum mismatch on attempt 3 (retryable)
error [host-down] emuhost: transfer failed after 3 attempts (permanent)
network: none
injected: transfer-fault emuhost transfer-fault emuhost transfer-fault emuhost
)"},
      {"transfer deadline",
       [](FaultPlan& plan, DeployOptions& opts, core::RunControl&) {
         plan.fail_transfers("emuhost", 50);
         opts.max_transfer_attempts = 50;
         opts.transfer_deadline_ms = 300;
       },
       R"(
archive @emuhost: 46 files, 6337 bytes
transfer @emuhost: autonet@emuhost attempt 1
extract @emuhost: checksum mismatch, retrying
transfer @emuhost: backoff 53ms
transfer @emuhost: autonet@emuhost attempt 2
extract @emuhost: checksum mismatch, retrying
transfer @emuhost: backoff 181ms
transfer @emuhost: autonet@emuhost attempt 3
extract @emuhost: checksum mismatch, retrying
deadline-exceeded @emuhost: transfer deadline exceeded (300ms budget 300ms)
success=0 degraded=0 transfer_attempts=3 boot_attempts=0 backoff_ms=300
booted:
failed: r1 r2 r3 r4 r5
convergence: converged=0 oscillating=0 rounds=0 period=0 updates=0 timeout=none
error [transfer] emuhost: checksum mismatch on attempt 1 (retryable)
error [transfer] emuhost: checksum mismatch on attempt 2 (retryable)
error [transfer] emuhost: checksum mismatch on attempt 3 (retryable)
error [deadline] emuhost: transfer phase deadline exceeded (permanent)
network: none
injected: transfer-fault emuhost transfer-fault emuhost transfer-fault emuhost
)"},
      {"dead host",
       [](FaultPlan& plan, DeployOptions&, core::RunControl&) {
         plan.kill_host("emuhost");
       },
       R"(
archive @emuhost: 46 files, 6337 bytes
transfer @emuhost: autonet@emuhost attempt 1
transfer @emuhost: emuhost: connection refused
transfer @emuhost: backoff 53ms
transfer @emuhost: autonet@emuhost attempt 2
transfer @emuhost: emuhost: connection refused
transfer @emuhost: backoff 181ms
transfer @emuhost: autonet@emuhost attempt 3
transfer @emuhost: emuhost: connection refused
retries-exhausted @emuhost: transfer failed after 3 attempts
success=0 degraded=0 transfer_attempts=3 boot_attempts=0 backoff_ms=234
booted:
failed: r1 r2 r3 r4 r5
convergence: converged=0 oscillating=0 rounds=0 period=0 updates=0 timeout=none
error [host-down] emuhost: transfer failed after 3 attempts (permanent)
network: none
injected:
)"},
      {"transient boot fault, retried",
       [](FaultPlan& plan, DeployOptions&, core::RunControl&) {
         plan.fail_boot("emuhost", "r3", 2);
       },
       R"(
archive @emuhost: 46 files, 6337 bytes
transfer @emuhost: autonet@emuhost attempt 1
extract @emuhost: archive verified and extracted
boot @emuhost: r1 up
boot @emuhost: r2 up
boot @emuhost: r3 FAILED (attempt 1)
boot @emuhost: r3 retry after 53ms backoff
boot @emuhost: r3 FAILED (attempt 2)
boot @emuhost: r3 retry after 181ms backoff
boot @emuhost: r3 up
boot @emuhost: r4 up
boot @emuhost: r5 up
started @emuhost: 5 machines, BGP converged in 4 rounds
success=1 degraded=0 transfer_attempts=1 boot_attempts=7 backoff_ms=234
booted: r1 r2 r3 r4 r5
failed:
convergence: converged=1 oscillating=0 rounds=4 period=0 updates=38 timeout=none
network: 5 routers
injected: boot-fault emuhost/r3 boot-fault emuhost/r3
)"},
      {"permanent boot fault, strict",
       [](FaultPlan& plan, DeployOptions&, core::RunControl&) {
         plan.fail_boot("emuhost", "r3", 100);
       },
       R"(
archive @emuhost: 46 files, 6337 bytes
transfer @emuhost: autonet@emuhost attempt 1
extract @emuhost: archive verified and extracted
boot @emuhost: r1 up
boot @emuhost: r2 up
boot @emuhost: r3 FAILED (attempt 1)
boot @emuhost: r3 retry after 53ms backoff
boot @emuhost: r3 FAILED (attempt 2)
boot @emuhost: r3 retry after 181ms backoff
boot @emuhost: r3 FAILED (attempt 3)
boot @emuhost: r4 up
boot @emuhost: r5 up
failed @emuhost: 1 machines failed to boot
success=0 degraded=0 transfer_attempts=1 boot_attempts=7 backoff_ms=234
booted: r1 r2 r4 r5
failed: r3
convergence: converged=0 oscillating=0 rounds=0 period=0 updates=0 timeout=none
error [boot] r3: failed to boot after 3 attempts (permanent)
network: none
injected: boot-fault emuhost/r3 boot-fault emuhost/r3 boot-fault emuhost/r3
)"},
      {"permanent boot fault, allow_partial",
       [](FaultPlan& plan, DeployOptions& opts, core::RunControl&) {
         plan.fail_boot("emuhost", "r3", 100);
         opts.allow_partial = true;
       },
       R"(
archive @emuhost: 46 files, 6337 bytes
transfer @emuhost: autonet@emuhost attempt 1
extract @emuhost: archive verified and extracted
boot @emuhost: r1 up
boot @emuhost: r2 up
boot @emuhost: r3 FAILED (attempt 1)
boot @emuhost: r3 retry after 53ms backoff
boot @emuhost: r3 FAILED (attempt 2)
boot @emuhost: r3 retry after 181ms backoff
boot @emuhost: r3 FAILED (attempt 3)
boot @emuhost: r4 up
boot @emuhost: r5 up
degraded @emuhost: 4/5 machines up, 1 lost
success=1 degraded=1 transfer_attempts=1 boot_attempts=7 backoff_ms=234
booted: r1 r2 r4 r5
failed: r3
convergence: converged=1 oscillating=0 rounds=4 period=0 updates=17 timeout=none
error [boot] r3: failed to boot after 3 attempts (permanent)
network: 4 routers
injected: boot-fault emuhost/r3 boot-fault emuhost/r3 boot-fault emuhost/r3
)"},
      {"boot deadline",
       [](FaultPlan& plan, DeployOptions& opts, core::RunControl&) {
         plan.fail_boot("emuhost", "r3", 100);
         opts.max_boot_attempts = 50;
         opts.boot_deadline_ms = 300;
       },
       R"(
archive @emuhost: 46 files, 6337 bytes
transfer @emuhost: autonet@emuhost attempt 1
extract @emuhost: archive verified and extracted
boot @emuhost: r1 up
boot @emuhost: r2 up
boot @emuhost: r3 FAILED (attempt 1)
boot @emuhost: r3 retry after 53ms backoff
boot @emuhost: r3 FAILED (attempt 2)
boot @emuhost: r3 retry after 181ms backoff
boot @emuhost: r3 FAILED (attempt 3)
deadline-exceeded @emuhost: boot deadline exceeded (300ms budget 300ms)
success=0 degraded=0 transfer_attempts=1 boot_attempts=5 backoff_ms=300
booted: r1 r2
failed: r3
convergence: converged=0 oscillating=0 rounds=0 period=0 updates=0 timeout=none
error [boot] r3: failed to boot after 3 attempts (permanent)
error [deadline] emuhost: boot phase deadline exceeded (permanent)
network: none
injected: boot-fault emuhost/r3 boot-fault emuhost/r3 boot-fault emuhost/r3
)"},
      {"run deadline in a boot backoff",
       [](FaultPlan& plan, DeployOptions& opts, core::RunControl& control) {
         plan.fail_boot("emuhost", "r3", 100);
         control.deadline = core::Deadline::after_ms(150);
         opts.control = &control;
       },
       R"(
archive @emuhost: 46 files, 6337 bytes
transfer @emuhost: autonet@emuhost attempt 1
extract @emuhost: archive verified and extracted
boot @emuhost: r1 up
boot @emuhost: r2 up
boot @emuhost: r3 FAILED (attempt 1)
boot @emuhost: r3 retry after 53ms backoff
boot @emuhost: r3 FAILED (attempt 2)
deadline-exceeded @emuhost: boot deadline exceeded (150ms budget 60000ms)
success=0 degraded=0 transfer_attempts=1 boot_attempts=4 backoff_ms=150
booted: r1 r2
failed: r3
convergence: converged=0 oscillating=0 rounds=0 period=0 updates=0 timeout=none
error [boot] r3: failed to boot after 2 attempts (permanent)
error [deadline] emuhost: boot phase deadline exceeded (permanent)
network: none
injected: boot-fault emuhost/r3 boot-fault emuhost/r3
)"},
  };
  for (const OneHostRow& row : rows) {
    SCOPED_TRACE(row.name);
    obs::Registry registry(std::make_unique<obs::VirtualClock>());
    obs::RegistryScope scope(registry);
    FaultPlan plan(7);
    DeployOptions opts;
    core::RunControl control;
    row.setup(plan, opts, control);
    EmulationHost host("emuhost");
    host.attach_faults(&plan);
    Deployer deployer({&host});
    const DeployResult result = deployer.deploy(wf_->configs(), wf_->nidb(), opts);
    const std::string got =
        transcript(deployer, result, deployer.network(), plan, registry);
    EXPECT_EQ("\n" + got, row.expected);
  }
}

}  // namespace
