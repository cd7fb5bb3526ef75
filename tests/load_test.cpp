#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "topology/builtin.hpp"
#include "topology/gml.hpp"
#include "topology/graphml.hpp"
#include "topology/load.hpp"

namespace {

using namespace autonet::topology;
namespace fs = std::filesystem;

class LoadDispatch : public ::testing::Test {
 protected:
  // A private directory per test: ctest runs these tests as concurrent
  // processes, and each TearDown removes its own.
  void SetUp() override {
    std::string pattern = (fs::temp_directory_path() / "autonet_load_test_XXXXXX").string();
    ASSERT_NE(mkdtemp(pattern.data()), nullptr);
    dir_ = pattern;
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write(const std::string& name, const std::string& content) {
    auto path = dir_ / name;
    std::ofstream(path) << content;
    return path.string();
  }

  fs::path dir_;
};

TEST_F(LoadDispatch, GraphmlByExtension) {
  auto path = write("lab.graphml", to_graphml(small_internet()));
  auto g = load_topology_file(path);
  EXPECT_EQ(g.node_count(), 14u);
}

TEST_F(LoadDispatch, GmlByExtension) {
  auto path = write("lab.gml", to_gml(figure5()));
  auto g = load_topology_file(path);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 6u);
}

TEST_F(LoadDispatch, RocketfuelByExtension) {
  auto path = write("isp.cch",
                    "1 @A 1 -> <2> =a r0\n2 @B 1 -> <1> =b r0\n");
  auto g = load_topology_file(path);
  EXPECT_EQ(g.node_count(), 2u);
}

TEST_F(LoadDispatch, UnknownExtensionThrows) {
  auto path = write("lab.json", "{}");
  EXPECT_THROW(load_topology_file(path), ParseError);
  EXPECT_THROW(load_topology_file("noextension"), ParseError);
}

TEST_F(LoadDispatch, MissingFileThrows) {
  EXPECT_THROW(load_topology_file((dir_ / "nope.gml").string()), ParseError);
}

}  // namespace
