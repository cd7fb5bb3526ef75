#include <gtest/gtest.h>

#include "core/hash.hpp"
#include "core/workflow.hpp"
#include "deploy/archive.hpp"
#include "deploy/deployer.hpp"
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
  std::vector<DeployEvent> events;
  Deployer deployer(host, [&events](const DeployEvent& e) { events.push_back(e); });
  auto result = deployer.deploy(wf_->configs(), wf_->nidb());
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.booted.size(), 5u);
  EXPECT_EQ(result.transfer_attempts, 1);
  EXPECT_TRUE(result.convergence.converged);
  ASSERT_NE(host.network(), nullptr);
  EXPECT_EQ(host.network()->router_count(), 5u);
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
  Deployer deployer(host);
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
  Deployer deployer(host);
  auto result = deployer.deploy(wf_->configs(), wf_->nidb(), opts);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.transfer_attempts, 1);
  EXPECT_EQ(host.network(), nullptr);
  bool saw_exhausted = false;
  for (const auto& line : deployer.log()) {
    if (line.starts_with("retries-exhausted:")) saw_exhausted = true;
  }
  EXPECT_TRUE(saw_exhausted);
}

TEST_F(DeployFixture, BootFailureReported) {
  EmulationHost host("partial");
  host.fail_boot_of("r3");
  Deployer deployer(host);
  auto result = deployer.deploy(wf_->configs(), wf_->nidb());
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.failed_machines, std::vector<std::string>{"r3"});
  EXPECT_EQ(result.booted.size(), 4u);
  EXPECT_EQ(host.network(), nullptr);  // lab did not start
  // Recovery: clear and redeploy.
  host.clear_boot_failures();
  auto retry = deployer.deploy(wf_->configs(), wf_->nidb());
  EXPECT_TRUE(retry.success);
}

TEST_F(DeployFixture, LogNarratesMachineBoots) {
  EmulationHost host("verbose");
  Deployer deployer(host);
  deployer.deploy(wf_->configs(), wf_->nidb());
  std::size_t boot_lines = 0;
  for (const auto& line : deployer.log()) {
    if (line.starts_with("boot:")) ++boot_lines;
  }
  EXPECT_EQ(boot_lines, 5u);
}

}  // namespace
