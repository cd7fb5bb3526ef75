// NIDB JSON round-trip and the reachability-matrix measurement: the
// pieces behind "compile once, deploy later" workflows.
#include <gtest/gtest.h>

#include "core/workflow.hpp"
#include "deploy/deployer.hpp"
#include "measure/client.hpp"
#include "topology/builtin.hpp"

namespace {

using namespace autonet;

TEST(NidbRoundTrip, JsonPreservesEverything) {
  core::Workflow wf;
  wf.load(topology::small_internet()).design().compile();
  const auto& original = wf.nidb();
  auto restored = nidb::Nidb::from_json(original.to_json());
  EXPECT_EQ(restored.device_count(), original.device_count());
  EXPECT_EQ(restored.links().size(), original.links().size());
  for (const auto* rec : original.devices()) {
    const auto* copy = restored.device(rec->name);
    ASSERT_NE(copy, nullptr) << rec->name;
    EXPECT_EQ(copy->data, rec->data) << rec->name;
  }
  EXPECT_EQ(restored.data(), original.data());
  // And a second round trip is identical text.
  EXPECT_EQ(restored.to_json(), original.to_json());
}

TEST(NidbRoundTrip, RestoredNidbDrivesRenderAndDeploy) {
  core::Workflow wf;
  wf.load(topology::figure5()).design().compile();
  auto restored = nidb::Nidb::from_json(wf.nidb().to_json());
  auto configs = render::render_configs(restored);
  deploy::EmulationHost host("localhost");
  deploy::Deployer deployer({&host});
  auto result = deployer.deploy(configs, restored);
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(result.convergence.converged);
}

TEST(NidbRoundTrip, MalformedDocumentsThrow) {
  EXPECT_THROW(nidb::Nidb::from_json("[]"), std::runtime_error);
  EXPECT_THROW(nidb::Nidb::from_json("{\"devices\": 5}"), std::runtime_error);
  EXPECT_THROW(nidb::Nidb::from_json("{\"links\": {}}"), std::runtime_error);
  EXPECT_THROW(nidb::Nidb::from_json("not json"), std::runtime_error);
}

TEST(Reachability, FullMatrixOnHealthyNetwork) {
  core::Workflow wf;
  wf.run(topology::figure5());
  auto matrix = wf.measurement().reachability();
  EXPECT_EQ(matrix.routers.size(), 5u);
  EXPECT_TRUE(matrix.fully_connected());
  EXPECT_EQ(matrix.reachable_pairs(), 20u);
}

TEST(Reachability, DegradesUnderFailureAndRecovers) {
  core::Workflow wf;
  wf.run(topology::figure5());
  auto client = wf.measurement();
  ASSERT_TRUE(wf.network().fail_link("r3", "r5"));
  ASSERT_TRUE(wf.network().fail_link("r4", "r5"));
  wf.network().start();
  auto degraded = client.reachability();
  EXPECT_FALSE(degraded.fully_connected());
  // r5 is stranded: loses both directions against 4 routers.
  EXPECT_EQ(degraded.reachable_pairs(), 20u - 8u);
  wf.network().restore_link("r3", "r5");
  wf.network().restore_link("r4", "r5");
  wf.network().start();
  EXPECT_TRUE(client.reachability().fully_connected());
}

}  // namespace
