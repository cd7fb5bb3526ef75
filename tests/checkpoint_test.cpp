// Crash-consistent checkpoint storage: atomic writes, content-hash
// verification against torn or tampered artifacts, manifest recovery,
// downstream invalidation, lossless graph/ANM artifact round-trips, and
// the journal's checkpoint-pointer records.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/hash.hpp"
#include "core/workflow.hpp"
#include "experiment/journal.hpp"
#include "graph/graph.hpp"
#include "obs/registry.hpp"
#include "topology/builtin.hpp"

namespace {

using namespace autonet;
namespace fs = std::filesystem;

std::string temp_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

std::uint64_t counter_value(obs::Registry& registry, const std::string& name) {
  for (const auto& [key, value] : registry.counter_values()) {
    if (key == name) return value;
  }
  return 0;
}

// --- Primitives -----------------------------------------------------------

TEST(CheckpointHash, DeterministicAndContentSensitive) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a(std::string_view("\0", 1)));
  // FNV-1a offset basis for the empty string (stable across platforms).
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
}

TEST(WriteFileAtomic, WritesAndReplacesWithoutTemps) {
  const std::string dir = temp_dir("autonet_atomic_test");
  fs::create_directories(dir);
  const std::string path = dir + "/target.txt";
  core::write_file_atomic(path, "first");
  EXPECT_EQ(slurp(path), "first");
  core::write_file_atomic(path, "second");
  EXPECT_EQ(slurp(path), "second");
  // No temp files are left behind: the rename consumed them.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().filename().string(), "target.txt");
  }
  EXPECT_EQ(entries, 1u);
  fs::remove_all(dir);
}

TEST(AppendLineDurable, AppendsOneLinePerCall) {
  const std::string dir = temp_dir("autonet_append_test");
  fs::create_directories(dir);
  const std::string path = dir + "/log.jsonl";
  core::append_line_durable(path, "one");
  core::append_line_durable(path, "two");
  EXPECT_EQ(slurp(path), "one\ntwo\n");
  fs::remove_all(dir);
}

TEST(Journal, ClaimKeepsItsOwnCampaignAndStartsAnyOtherOver) {
  const std::string dir = temp_dir("autonet_core_journal_test");
  fs::create_directories(dir);
  const std::string path = dir + "/journal.jsonl";
  const std::string mine = "{\"campaign\":{\"seed\":1}}";
  {
    // Written before journals named their campaign: started over.
    std::ofstream file(path, std::ios::binary);
    file << "{\"run\":0}\n";
  }
  core::Journal journal(path);
  journal.claim(mine);
  EXPECT_EQ(slurp(path), mine + "\n");
  journal.append("{\"run\":0}");
  journal.append("{\"run\":1");  // torn by a kill mid-append
  journal.claim(mine);
  const std::vector<nidb::Value> records = journal.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].find("run")->as_int(), 0);

  journal.claim("{\"campaign\":{\"seed\":2}}");
  EXPECT_EQ(slurp(path), "{\"campaign\":{\"seed\":2}}\n");
  EXPECT_TRUE(journal.records().empty());
  fs::remove_all(dir);
}

// --- CheckpointStore ------------------------------------------------------

TEST(CheckpointStore, RecordsRestoresAndPersistsAcrossReopen) {
  obs::Registry registry(std::make_unique<obs::VirtualClock>());
  obs::RegistryScope scope(registry);
  const std::string dir = temp_dir("autonet_ckpt_store_test");
  {
    core::CheckpointStore store(dir);
    EXPECT_FALSE(store.has_phase("load"));
    EXPECT_THROW((void)store.artifact("load"), core::CheckpointError);
    store.record_phase("load", "load.json", "{\"load\":1}", 12.5);
    store.record_phase("design", "design.json", "{\"design\":2}", 7.25);
    store.set_meta("input_hash", "42");
    EXPECT_TRUE(store.has_phase("load"));
    EXPECT_EQ(store.artifact("design"), "{\"design\":2}");
    EXPECT_DOUBLE_EQ(store.phase_ms("load"), 12.5);
  }
  EXPECT_EQ(counter_value(registry, "ckpt.write"), 2u);

  // A second open (a resumed process) sees exactly the recorded state.
  core::CheckpointStore reopened(dir);
  EXPECT_EQ(reopened.phases(), (std::vector<std::string>{"load", "design"}));
  EXPECT_EQ(reopened.artifact("load"), "{\"load\":1}");
  EXPECT_DOUBLE_EQ(reopened.phase_ms("design"), 7.25);
  EXPECT_EQ(reopened.meta("input_hash"), "42");
  EXPECT_EQ(reopened.meta("no_such_key"), "");
  fs::remove_all(dir);
}

TEST(CheckpointStore, TamperedArtifactFailsTheHashCheck) {
  const std::string dir = temp_dir("autonet_ckpt_tamper_test");
  core::CheckpointStore store(dir);
  store.record_phase("compile", "compile.json", "{\"nidb\":true}", 1);
  {
    std::ofstream file(dir + "/compile.json", std::ios::binary);
    file << "{\"nidb\":fals";  // torn rewrite from a crashed editor
  }
  EXPECT_FALSE(store.has_phase("compile"));
  EXPECT_THROW((void)store.artifact("compile"), core::CheckpointError);
  // A reopened store agrees: the record exists but fails verification.
  core::CheckpointStore reopened(dir);
  EXPECT_FALSE(reopened.has_phase("compile"));
  fs::remove_all(dir);
}

TEST(CheckpointStore, MissingArtifactFileIsNotAPhase) {
  const std::string dir = temp_dir("autonet_ckpt_missing_test");
  core::CheckpointStore store(dir);
  store.record_phase("render", "render.json", "content", 1);
  fs::remove(dir + "/render.json");
  EXPECT_FALSE(store.has_phase("render"));
  fs::remove_all(dir);
}

TEST(CheckpointStore, TornManifestRecoversAsEmpty) {
  const std::string dir = temp_dir("autonet_ckpt_torn_test");
  {
    core::CheckpointStore store(dir);
    store.record_phase("load", "load.json", "x", 1);
  }
  {
    std::ofstream file(dir + "/manifest.json", std::ios::binary);
    file << "{\"phases\": [{\"name\": \"loa";  // kill mid-write
  }
  core::CheckpointStore recovered(dir);
  EXPECT_TRUE(recovered.phases().empty());
  EXPECT_FALSE(recovered.has_phase("load"));
  // The store remains usable after recovery.
  recovered.record_phase("load", "load.json", "y", 2);
  EXPECT_EQ(recovered.artifact("load"), "y");
  fs::remove_all(dir);
}

TEST(CheckpointStore, InvalidateDropsDownstreamRecordsOnly) {
  const std::string dir = temp_dir("autonet_ckpt_invalidate_test");
  core::CheckpointStore store(dir);
  store.record_phase("load", "load.json", "l", 1);
  store.record_phase("design", "design.json", "d", 1);
  store.record_phase("compile", "compile.json", "c", 1);
  store.invalidate({"design", "compile", "render"});  // absent name ok
  EXPECT_TRUE(store.has_phase("load"));
  EXPECT_FALSE(store.has_phase("design"));
  EXPECT_FALSE(store.has_phase("compile"));
  EXPECT_EQ(store.phases(), (std::vector<std::string>{"load"}));
  // The invalidation is durable, not just in-memory.
  core::CheckpointStore reopened(dir);
  EXPECT_EQ(reopened.phases(), (std::vector<std::string>{"load"}));
  fs::remove_all(dir);
}

// --- Artifact serialization round-trips -----------------------------------

TEST(CheckpointSerialize, GraphRoundTripsLosslessly) {
  graph::Graph g(false, "rt");
  const auto a = g.add_node("a");
  const auto b = g.add_node("b");
  const auto e = g.add_edge(a, b);
  g.set_node_attr(a, "asn", std::int64_t{65001});
  g.set_node_attr(a, "lat", 0.1);  // not exactly representable: %.17g must hold it
  g.set_node_attr(b, "edge_router", true);
  g.set_node_attr(b, "label", "pop-B");
  g.set_edge_attr(e, "weight", 1e300);
  g.set_edge_attr(e, "cost", std::int64_t{10});

  const nidb::Value once = core::graph_to_value(g);
  const graph::Graph restored = core::graph_from_value(once);
  const nidb::Value twice = core::graph_to_value(restored);
  // Byte-identical re-serialization is the lossless-ness oracle: every
  // attr (including doubles) survived the trip exactly.
  EXPECT_EQ(once.to_json(false), twice.to_json(false));
  EXPECT_EQ(restored.node_count(), 2u);
  EXPECT_EQ(restored.edge_count(), 1u);
  EXPECT_FALSE(restored.directed());
  EXPECT_EQ(restored.name(), "rt");
}

TEST(CheckpointSerialize, DirectednessSurvives) {
  graph::Graph g(true, "digraph");
  g.add_edge(g.add_node("u"), g.add_node("v"));
  const graph::Graph restored = core::graph_from_value(core::graph_to_value(g));
  EXPECT_TRUE(restored.directed());
}

TEST(CheckpointSerialize, AnmRoundTripsARealDesign) {
  // Run the real design rules over figure5, snapshot the ANM, restore it
  // into a fresh model, and demand byte-identical re-serialization.
  core::Workflow wf;
  wf.load(topology::figure5()).design();
  const nidb::Value once = core::anm_to_value(wf.anm());

  anm::AbstractNetworkModel fresh;
  core::anm_from_value(once, fresh);
  const nidb::Value twice = core::anm_to_value(fresh);
  EXPECT_EQ(once.to_json(false), twice.to_json(false));
  EXPECT_TRUE(fresh.has_overlay("ospf"));
  EXPECT_TRUE(fresh.has_overlay("phy"));
  EXPECT_EQ(fresh.overlay("phy").node_count(),
            wf.anm().overlay("phy").node_count());
}

// --- Journal checkpoint records -------------------------------------------

experiment::RunResult ok_result(const std::string& id) {
  experiment::RunResult result;
  result.id = id;
  result.ok = true;
  return result;
}

TEST(JournalCheckpoint, RecordRoundTrips) {
  experiment::CheckpointRecord record;
  record.run_id = "ibgp=mesh,dns=on/rep0";
  record.dir = "/tmp/ckpt/run0";
  record.reason = "cancelled at phase.deploy: user interrupt (SIGINT)";
  record.phases = {"load", "design", "compile"};
  const auto parsed = experiment::CheckpointRecord::from_json(record.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->run_id, record.run_id);
  EXPECT_EQ(parsed->dir, record.dir);
  EXPECT_EQ(parsed->reason, record.reason);
  EXPECT_EQ(parsed->phases, record.phases);
  // Result lines are not checkpoint records and vice versa.
  EXPECT_FALSE(
      experiment::CheckpointRecord::from_json(ok_result("a/rep0").to_json()));
  EXPECT_THROW((void)experiment::RunResult::from_json(record.to_json()),
               std::exception);
}

TEST(JournalCheckpoint, LoadLatestWinsAndCompletionSupersedes) {
  const std::string dir = temp_dir("autonet_journal_ckpt_test");
  fs::create_directories(dir);
  const std::string path = dir + "/journal.jsonl";
  experiment::Journal journal(path);

  experiment::CheckpointRecord first;
  first.run_id = "a/rep0";
  first.dir = "d1";
  first.phases = {"load"};
  journal.append_checkpoint(first);

  experiment::CheckpointRecord second = first;
  second.dir = "d1";
  second.phases = {"load", "design", "compile"};
  journal.append_checkpoint(second);  // same run, further along

  experiment::CheckpointRecord other;
  other.run_id = "b/rep0";
  other.dir = "d2";
  other.phases = {"load"};
  journal.append_checkpoint(other);

  journal.append(ok_result("b/rep0"));  // b completed: its pointer is spent

  auto records = journal.load_checkpoints();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_TRUE(records.contains("a/rep0"));
  EXPECT_EQ(records.at("a/rep0").phases,
            (std::vector<std::string>{"load", "design", "compile"}));

  // Results loading skips checkpoint lines entirely.
  const auto results = journal.load();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results.contains("b/rep0"));

  // A torn trailing ckpt line (kill mid-append) is tolerated.
  {
    std::ofstream file(path, std::ios::binary | std::ios::app);
    file << "{\"ckpt\":{\"run_id\":\"c/rep0\",\"ph";
  }
  EXPECT_EQ(journal.load_checkpoints().size(), 1u);
  fs::remove_all(dir);
}

TEST(JournalCheckpoint, FailedResultDoesNotSpendThePointer) {
  const std::string dir = temp_dir("autonet_journal_failed_test");
  fs::create_directories(dir);
  experiment::Journal journal(dir + "/journal.jsonl");
  experiment::CheckpointRecord record;
  record.run_id = "a/rep0";
  record.dir = "d";
  journal.append_checkpoint(record);
  experiment::RunResult failed;
  failed.id = "a/rep0";
  failed.ok = false;
  failed.error = "deploy failed";
  journal.append(failed);
  // The failed run will re-execute; its checkpoint stays available.
  EXPECT_TRUE(journal.load_checkpoints().contains("a/rep0"));
  fs::remove_all(dir);
}

}  // namespace
