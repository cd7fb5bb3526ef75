// Distributed deployment across emulation hosts (§3.3 StarBed scenario):
// per-host config slices, per-host boot, GRE stitching of cross-host
// links, one combined control plane, and a boot deadline that ends the
// whole deployment.
#include <gtest/gtest.h>

#include "core/workflow.hpp"
#include "deploy/deployer.hpp"
#include "deploy/faults.hpp"
#include "topology/builtin.hpp"

namespace {

using namespace autonet;
using namespace autonet::deploy;

/// figure5 with AS 2 (r5) placed on a second emulation host.
core::Workflow split_workflow() {
  auto input = topology::figure5();
  input.set_node_attr(input.find_node("r5"), "host", "hostB");
  core::Workflow wf;
  wf.load(input).design().compile().render();
  return wf;
}

TEST(MultiHost, SlicesAndBootsPerHost) {
  auto wf = split_workflow();
  EmulationHost a("localhost");
  EmulationHost b("hostB");
  Deployer deployer({&a, &b});
  auto result = deployer.deploy(wf.configs(), wf.nidb());
  ASSERT_TRUE(result.success);
  ASSERT_EQ(deployer.slices().size(), 2u);
  EXPECT_EQ(deployer.slices()[0].booted.size(), 4u);  // r1..r4
  EXPECT_EQ(deployer.slices()[1].booted.size(), 1u);  // r5
  // Each host's filesystem holds its own devices plus shared artefacts.
  EXPECT_TRUE(a.filesystem().contains("lab.conf"));
  EXPECT_TRUE(b.filesystem().contains("lab.conf"));
  EXPECT_TRUE(a.filesystem().paths_under("hostB/").empty());
  EXPECT_FALSE(b.filesystem().paths_under("hostB/netkit/r5").empty());
  EXPECT_TRUE(b.filesystem().paths_under("localhost/").empty());
}

TEST(MultiHost, CrossHostLinksStitched) {
  auto wf = split_workflow();
  EmulationHost a("localhost");
  EmulationHost b("hostB");
  Deployer deployer({&a, &b});
  auto result = deployer.deploy(wf.configs(), wf.nidb());
  ASSERT_TRUE(result.success);
  // r5 has two physical links into host A: two GRE stitches.
  EXPECT_EQ(deployer.cross_connects(), 2u);
  bool stitch_logged = false;
  for (const auto& line : deployer.log()) {
    if (line.find("stitch gre") != std::string::npos) stitch_logged = true;
  }
  EXPECT_TRUE(stitch_logged);
}

TEST(MultiHost, DeadHostStitchesNothing) {
  // r5 on a dead hostB: the two tunnels into host A have no far end, so
  // none is stitched, and the lab degrades to host A's four machines.
  auto wf = split_workflow();
  FaultPlan plan;
  plan.kill_host("hostB");
  EmulationHost a("localhost");
  EmulationHost b("hostB");
  a.attach_faults(&plan);
  b.attach_faults(&plan);
  Deployer deployer({&a, &b});
  DeployOptions opts;
  opts.allow_partial = true;
  opts.max_transfer_attempts = 2;
  auto result = deployer.deploy(wf.configs(), wf.nidb(), opts);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(deployer.cross_connects(), 0u);
  for (const auto& line : deployer.log()) {
    EXPECT_EQ(line.find("stitch"), std::string::npos) << line;
  }
  EXPECT_EQ(result.failed_machines, std::vector<std::string>{"r5"});
  EXPECT_EQ(deployer.slices()[1].lost, std::vector<std::string>{"r5"});
}

TEST(MultiHost, NetworkRunsWhatTheHostsHold) {
  // The network starts from the union of the online hosts' extracted
  // trees. Each host holds only its own slice; together they hold the
  // rendered tree, and the running network is the one booted from them.
  auto wf = split_workflow();
  EmulationHost a("localhost");
  EmulationHost b("hostB");
  Deployer deployer({&a, &b});
  ASSERT_TRUE(deployer.deploy(wf.configs(), wf.nidb()).success);
  EXPECT_NE(a.filesystem(), wf.configs());
  EXPECT_NE(b.filesystem(), wf.configs());
  render::ConfigTree held;
  for (const EmulationHost* host : {&a, &b}) {
    for (const auto& [path, content] : host->filesystem()) held.put(path, content);
  }
  EXPECT_EQ(held, wf.configs());
  auto expected = emulation::EmulatedNetwork::from_nidb(wf.nidb(), held);
  expected.start();
  const emulation::EmulatedNetwork& running = *deployer.network();
  ASSERT_EQ(running.router_names(), expected.router_names());
  for (const auto& name : running.router_names()) {
    const auto& got = *running.router(name);
    const auto& want = *expected.router(name);
    EXPECT_EQ(got.config().interfaces.size(), want.config().interfaces.size()) << name;
    EXPECT_EQ(got.config().bgp_neighbors.size(), want.config().bgp_neighbors.size())
        << name;
    EXPECT_EQ(got.ospf_neighbors(), want.ospf_neighbors()) << name;
    EXPECT_EQ(got.fib().size(), want.fib().size()) << name;
    std::vector<std::pair<std::string, emulation::BgpRoute>> got_best;
    std::vector<std::pair<std::string, emulation::BgpRoute>> want_best;
    for (const auto& [prefix, route] : got.bgp_best()) got_best.emplace_back(prefix, route);
    for (const auto& [prefix, route] : want.bgp_best()) want_best.emplace_back(prefix, route);
    EXPECT_EQ(got_best, want_best) << name;
  }
}

TEST(MultiHost, CombinedNetworkSpansHosts) {
  auto wf = split_workflow();
  EmulationHost a("localhost");
  EmulationHost b("hostB");
  Deployer deployer({&a, &b});
  auto result = deployer.deploy(wf.configs(), wf.nidb());
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(result.convergence.converged);
  ASSERT_NE(deployer.network(), nullptr);
  // Traffic crosses the host boundary.
  auto lo = deployer.network()->router("r5")->config().loopback->address;
  auto trace = deployer.network()->traceroute("r1", lo);
  EXPECT_TRUE(trace.reached);
}

TEST(MultiHost, BootFailureOnOneHostBlocksLab) {
  auto wf = split_workflow();
  EmulationHost a("localhost");
  EmulationHost b("hostB");
  b.fail_boot_of("r5");
  Deployer deployer({&a, &b});
  auto result = deployer.deploy(wf.configs(), wf.nidb());
  EXPECT_FALSE(result.success);
  EXPECT_EQ(deployer.network(), nullptr);
  ASSERT_EQ(deployer.slices().size(), 2u);
  EXPECT_EQ(deployer.slices()[1].failed, std::vector<std::string>{"r5"});
}

TEST(MultiHost, TransferRetryPerHost) {
  auto wf = split_workflow();
  EmulationHost a("localhost");
  EmulationHost b("hostB");
  b.corrupt_next_transfer();
  Deployer deployer({&a, &b});
  auto result = deployer.deploy(wf.configs(), wf.nidb());
  ASSERT_TRUE(result.success);
  EXPECT_EQ(deployer.slices()[0].transfer_attempts, 1);
  EXPECT_EQ(deployer.slices()[1].transfer_attempts, 2);
}

TEST(MultiHost, UnassignedDevicesFailTheDeployment) {
  auto wf = split_workflow();
  // Two hosts, neither of them hostB (a lone host would take every device).
  EmulationHost a("localhost");
  EmulationHost c("hostC");
  Deployer deployer({&a, &c});
  auto result = deployer.deploy(wf.configs(), wf.nidb());
  EXPECT_FALSE(result.success);
}

TEST(MultiHost, BootDeadlineEndsTheDeployment) {
  // figure5 with r4 and r5 on hostB, both failing every boot: the boot
  // deadline runs out during r4's retries and ends the deployment, even
  // with allow_partial; r5 never gets an attempt.
  auto input = topology::figure5();
  input.set_node_attr(input.find_node("r4"), "host", "hostB");
  input.set_node_attr(input.find_node("r5"), "host", "hostB");
  core::Workflow wf;
  wf.load(input).design().compile().render();
  FaultPlan plan;
  plan.fail_boot("hostB", "r4", 100);
  plan.fail_boot("hostB", "r5", 100);
  EmulationHost a("localhost");
  EmulationHost b("hostB");
  b.attach_faults(&plan);
  Deployer deployer({&a, &b});
  DeployOptions opts;
  opts.max_boot_attempts = 50;
  opts.boot_deadline_ms = 300;
  opts.allow_partial = true;
  auto result = deployer.deploy(wf.configs(), wf.nidb(), opts);
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(deployer.network(), nullptr);
  EXPECT_EQ(result.booted, (std::vector<std::string>{"r1", "r2", "r3"}));
  EXPECT_EQ(result.failed_machines, std::vector<std::string>{"r4"});
  EXPECT_EQ(result.boot_attempts, 6);  // r1..r3 once, r4 three times
  EXPECT_EQ(result.backoff_ms, 300);
  EXPECT_EQ(result.errors,
            (core::ErrorList{
                {core::ErrorCategory::kBoot, "r4", "failed to boot after 3 attempts", false},
                {core::ErrorCategory::kDeadline, "hostB", "boot phase deadline exceeded",
                 false}}));
  ASSERT_FALSE(deployer.events().empty());
  EXPECT_EQ(deployer.events().back().to_line(),
            "deadline-exceeded: boot deadline exceeded (300ms budget 300ms)");
  EXPECT_EQ(plan.injected(),
            (std::vector<std::string>{"boot-fault hostB/r4", "boot-fault hostB/r4",
                                      "boot-fault hostB/r4"}));
}

TEST(MultiHost, RequiresHosts) {
  EXPECT_THROW(Deployer({}), std::invalid_argument);
}

}  // namespace
